// Simulated GPU device: global-memory allocation with CUDA-like virtual
// addresses (so the cost model can reason about 128-byte segments), and
// explicit host<->device transfers with modeled PCIe time.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/dim3.hpp"
#include "gpusim/error.hpp"
#include "gpusim/faultinject.hpp"

namespace accred::gpusim {

template <typename T>
class DeviceBuffer;

/// A non-owning, kernel-side view of a device buffer. Cheap to copy into
/// kernels; all loads/stores go through ThreadCtx so they are cost-modeled
/// and bounds-checked — and, when SimOptions::racecheck is on,
/// shadow-tracked per word within each block for barrier-interval race
/// detection (racecheck.hpp).
template <typename T>
struct GlobalView {
  T* data = nullptr;
  std::uint64_t vaddr = 0;
  std::size_t size = 0;

  [[nodiscard]] std::uint64_t addr_of(std::size_t i) const noexcept {
    return vaddr + i * sizeof(T);
  }
};

/// Cumulative transfer accounting for one device.
struct TransferStats {
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  double h2d_time_ns = 0;
  double d2h_time_ns = 0;
};

/// The simulated accelerator. Owns limits, cost parameters and allocation
/// bookkeeping; kernel launches are driven by gpusim::launch (launch.hpp).
class Device {
public:
  explicit Device(DeviceLimits limits = {}, CostParams costs = {})
      : limits_(limits), costs_(costs) {}

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceLimits& limits() const noexcept { return limits_; }
  [[nodiscard]] const CostParams& costs() const noexcept { return costs_; }
  [[nodiscard]] CostParams& costs() noexcept { return costs_; }
  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return allocated_;
  }
  [[nodiscard]] std::size_t live_allocations() const noexcept {
    return live_allocs_;
  }
  [[nodiscard]] const TransferStats& transfers() const noexcept {
    return transfers_;
  }

  /// Allocate an n-element typed buffer in device global memory. `label`
  /// names the allocation in OOM diagnostics and is the site key an
  /// injected alloc_fail fault matches against (faultinject.hpp).
  template <typename T>
  [[nodiscard]] DeviceBuffer<T> alloc(std::size_t n,
                                      std::string_view label = "");

  /// Arm the plan's alloc_fail faults on this device (replacing any prior
  /// set). Each armed fault fires once — on the nth allocation whose label
  /// matches — and then disarms, so a retried run allocates cleanly; the
  /// degradation executor re-arms sticky faults per attempt.
  void arm_alloc_faults(const FaultPlan& plan) {
    alloc_arms_.clear();
    for (const Fault& f : plan.faults()) {
      if (f.kind == FaultKind::kAllocFail) alloc_arms_.push_back({f, 0});
    }
  }
  void clear_alloc_faults() noexcept { alloc_arms_.clear(); }

private:
  template <typename T>
  friend class DeviceBuffer;

  struct AllocArm {
    Fault fault;
    std::uint64_t count = 0;  ///< matching allocations seen so far
  };

  std::uint64_t reserve(std::size_t bytes, std::string_view label) {
    for (auto it = alloc_arms_.begin(); it != alloc_arms_.end(); ++it) {
      if (!it->fault.stage.empty() && it->fault.stage != label) continue;
      if (it->count++ != it->fault.nth) continue;
      LaunchErrorInfo info;
      info.code = LaunchErrorCode::kOom;
      info.message = oom_message(bytes, label) + " (injected)";
      info.stage = std::string(label);
      info.injected = true;
      alloc_arms_.erase(it);  // one-shot: the retry path allocates cleanly
      throw LaunchError(std::move(info));
    }
    if (allocated_ + bytes > limits_.global_mem_bytes) {
      LaunchErrorInfo info;
      info.code = LaunchErrorCode::kOom;
      info.message = oom_message(bytes, label);
      info.stage = std::string(label);
      throw LaunchError(std::move(info));
    }
    allocated_ += bytes;
    live_allocs_ += 1;
    // cudaMalloc-style 256-byte alignment.
    const std::uint64_t base = (next_vaddr_ + 255) & ~std::uint64_t{255};
    next_vaddr_ = base + bytes;
    return base;
  }

  [[nodiscard]] std::string oom_message(std::size_t bytes,
                                        std::string_view label) const {
    std::string msg = "device out of memory: requested " +
                      std::to_string(bytes) + " bytes";
    if (!label.empty()) msg += " for '" + std::string(label) + "'";
    msg += " with " + std::to_string(allocated_) + " bytes across " +
           std::to_string(live_allocs_) + " live allocations";
    return msg;
  }

  void release(std::size_t bytes) noexcept {
    allocated_ -= bytes;
    live_allocs_ -= 1;
  }

  void note_h2d(std::size_t bytes) {
    transfers_.h2d_bytes += bytes;
    transfers_.h2d_time_ns +=
        static_cast<double>(bytes) / (costs_.h2d_bandwidth_gbs * 1e9) * 1e9;
  }
  void note_d2h(std::size_t bytes) {
    transfers_.d2h_bytes += bytes;
    transfers_.d2h_time_ns +=
        static_cast<double>(bytes) / (costs_.h2d_bandwidth_gbs * 1e9) * 1e9;
  }

  DeviceLimits limits_;
  CostParams costs_;
  std::uint64_t next_vaddr_ = 4096;
  std::size_t allocated_ = 0;
  std::size_t live_allocs_ = 0;
  TransferStats transfers_;
  std::vector<AllocArm> alloc_arms_;  ///< armed alloc_fail faults
};

/// RAII device allocation. Storage is host RAM standing in for device DRAM;
/// the virtual address keeps the cost model's segment arithmetic honest.
template <typename T>
class DeviceBuffer {
public:
  DeviceBuffer() = default;

  DeviceBuffer(Device& dev, std::size_t n, std::string_view label = "")
      : dev_(&dev),
        vaddr_(dev.reserve(n * sizeof(T), label)),
        storage_(std::make_unique<T[]>(n)),
        size_(n) {}

  ~DeviceBuffer() {
    if (dev_ != nullptr) dev_->release(size_ * sizeof(T));
  }

  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      if (dev_ != nullptr) dev_->release(size_ * sizeof(T));
      dev_ = std::exchange(o.dev_, nullptr);
      vaddr_ = std::exchange(o.vaddr_, 0);
      storage_ = std::move(o.storage_);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t vaddr() const noexcept { return vaddr_; }

  [[nodiscard]] GlobalView<T> view() const noexcept {
    return GlobalView<T>{storage_.get(), vaddr_, size_};
  }

  void copy_from_host(std::span<const T> src) {
    if (src.size() > size_) {
      throw std::out_of_range("copy_from_host: source larger than buffer");
    }
    std::memcpy(storage_.get(), src.data(), src.size_bytes());
    dev_->note_h2d(src.size_bytes());
  }

  void copy_to_host(std::span<T> dst) const {
    if (dst.size() > size_) {
      throw std::out_of_range("copy_to_host: destination larger than buffer");
    }
    std::memcpy(dst.data(), storage_.get(), dst.size_bytes());
    dev_->note_d2h(dst.size_bytes());
  }

  /// Fill with a value host-side (cudaMemset-style initialization).
  void fill(const T& v) {
    for (std::size_t i = 0; i < size_; ++i) storage_[i] = v;
  }

  /// Direct host-side access for test assertions and setup; bypasses the
  /// cost model by design.
  [[nodiscard]] std::span<T> host_span() noexcept {
    return {storage_.get(), size_};
  }
  [[nodiscard]] std::span<const T> host_span() const noexcept {
    return {storage_.get(), size_};
  }

private:
  Device* dev_ = nullptr;
  std::uint64_t vaddr_ = 0;
  std::unique_ptr<T[]> storage_;
  std::size_t size_ = 0;
};

template <typename T>
DeviceBuffer<T> Device::alloc(std::size_t n, std::string_view label) {
  return DeviceBuffer<T>(*this, n, label);
}

}  // namespace accred::gpusim
