#include "gpusim/fiber.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace accred::gpusim {
namespace {

/// Arm `f` to run `*body` through the raw-entry API; `*body` must outlive
/// the fiber's run.
template <typename Fn>
void arm(Fiber& f, Fn* body) {
  f.reset([](void* p) { (*static_cast<Fn*>(p))(); }, body);
}

TEST(Fiber, RunsToCompletionWithoutYield) {
  Fiber f;
  int x = 0;
  auto body = [&] { x = 42; };
  arm(f, &body);
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  Fiber f;
  std::vector<int> trace;
  auto body = [&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(2);
    Fiber::yield();
    trace.push_back(3);
  };
  arm(f, &body);
  f.resume();
  trace.push_back(10);
  f.resume();
  trace.push_back(20);
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(trace, (std::vector<int>{1, 10, 2, 20, 3}));
}

TEST(Fiber, CurrentTracksExecutingFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber f;
  Fiber* seen = nullptr;
  auto body = [&] { seen = Fiber::current(); };
  arm(f, &body);
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedFibersRestoreCurrent) {
  Fiber outer;
  Fiber inner;
  Fiber* in_outer_before = nullptr;
  Fiber* in_inner = nullptr;
  Fiber* in_outer_after = nullptr;
  auto inner_body = [&] { in_inner = Fiber::current(); };
  auto outer_body = [&] {
    in_outer_before = Fiber::current();
    inner.resume();
    in_outer_after = Fiber::current();
  };
  arm(inner, &inner_body);
  arm(outer, &outer_body);
  outer.resume();
  EXPECT_EQ(in_outer_before, &outer);
  EXPECT_EQ(in_inner, &inner);
  EXPECT_EQ(in_outer_after, &outer);
}

TEST(Fiber, ReusableAfterCompletion) {
  Fiber f;
  int runs = 0;
  auto body = [&] {
    ++runs;
    Fiber::yield();
    ++runs;
  };
  for (int i = 0; i < 100; ++i) {
    arm(f, &body);
    f.resume();
    f.resume();
    ASSERT_TRUE(f.done());
  }
  EXPECT_EQ(runs, 200);
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f;
  auto body = [] { throw std::runtime_error("boom"); };
  arm(f, &body);
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, ExceptionAfterYieldPropagates) {
  Fiber f;
  auto body = [] {
    Fiber::yield();
    throw std::logic_error("late boom");
  };
  arm(f, &body);
  f.resume();
  EXPECT_FALSE(f.done());
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, DeepStackUsageSurvives) {
  Fiber f(256 * 1024);
  std::uint64_t sum = 0;
  auto body = [&] {
    // Touch a decent chunk of stack to catch layout mistakes.
    volatile char buf[128 * 1024];
    for (std::size_t i = 0; i < sizeof(buf); i += 4096) {
      buf[i] = static_cast<char>(i / 4096 + 1);
    }
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < sizeof(buf); i += 4096) {
      s += std::uint64_t(buf[i]) & 0xff;
    }
    sum = s;
  };
  arm(f, &body);
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_GT(sum, 0u);
}

TEST(Fiber, ManyFibersInterleaved) {
  constexpr int kN = 64;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> order;
  const auto make_body = [&order](int i) {
    return [&order, i] {
      order.push_back(i);
      Fiber::yield();
      order.push_back(i + kN);
    };
  };
  std::vector<decltype(make_body(0))> bodies;
  bodies.reserve(kN);  // arm() keeps pointers into this vector
  for (int i = 0; i < kN; ++i) {
    bodies.push_back(make_body(i));
    fibers.push_back(std::make_unique<Fiber>(16 * 1024));
    arm(*fibers.back(), &bodies.back());
  }
  for (auto& f : fibers) f->resume();
  for (auto& f : fibers) f->resume();
  ASSERT_EQ(order.size(), 2 * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(order[kN + i], kN + i);
  }
}

TEST(Fiber, RejectsBogusStackSize) {
  EXPECT_THROW(Fiber f(100), std::invalid_argument);  // not 16-aligned
  EXPECT_THROW(Fiber f(1024), std::invalid_argument); // too small
}

}  // namespace
}  // namespace accred::gpusim
