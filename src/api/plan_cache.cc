#include "src/api/plan_cache.h"

#include <algorithm>

namespace bunshin {
namespace api {
namespace internal {

LruCacheCore::LruCacheCore(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

LruCacheCore::ValuePtr LruCacheCore::LookupLocked(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: most recently used
  return it->second->second;
}

void LruCacheCore::InsertLocked(const std::string& key, ValuePtr value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

StatusOr<LruCacheCore::ValuePtr> LruCacheCore::GetOr(const std::string& key,
                                                     const Factory& factory, bool* was_hit) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (ValuePtr value = LookupLocked(key)) {
      ++hits_;
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return value;
    }
    auto flight = inflight_.find(key);
    if (flight == inflight_.end()) {
      break;  // nobody is planning this key: become the planner
    }
    // Coalesce: another caller is already planning this key. Wait for it and
    // share its result (plan or error) — never produce a duplicate instance.
    std::shared_ptr<InFlight> entry = flight->second;
    done_cv_.wait(lock, [&entry] { return entry->done; });
    // Only a shared *plan* counts as a hit; a shared planner error is a miss
    // (nothing was served from the store — dashboards must not read reuse
    // into a failing configuration).
    const bool ok = entry->result.ok();
    if (ok) {
      ++hits_;
      ++coalesced_;
    } else {
      ++misses_;
    }
    if (was_hit != nullptr) {
      *was_hit = ok;
    }
    return entry->result;
  }

  ++misses_;
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  auto entry = std::make_shared<InFlight>();
  inflight_.emplace(key, entry);
  lock.unlock();

  // Planning runs outside the lock: other keys stay serviceable, and only
  // same-key callers wait (on the InFlight entry, not the mutex). A throwing
  // factory must not strand the InFlight entry (waiters would block forever),
  // so the exception is converted into a shared error status.
  StatusOr<ValuePtr> produced = Status(StatusCode::kInternal, "planner threw");
  try {
    produced = factory();
  } catch (const std::exception& e) {
    produced = Internal(std::string("planner threw: ") + e.what());
  } catch (...) {
  }

  lock.lock();
  if (produced.ok()) {
    InsertLocked(key, *produced);
  }
  // Errors are handed to coalesced waiters but not cached: a transient
  // planning failure should not poison the key.
  entry->result = produced;
  entry->done = true;
  inflight_.erase(key);
  lock.unlock();
  done_cv_.notify_all();
  return produced;
}

LruCacheCore::ValuePtr LruCacheCore::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ValuePtr value = LookupLocked(key);
  if (value != nullptr) {
    ++hits_;
  } else {
    ++misses_;
  }
  return value;
}

void LruCacheCore::Insert(const std::string& key, ValuePtr value) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(value));
}

void LruCacheCore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

PlanCacheStats LruCacheCore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.coalesced = coalesced_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  stats.capacity = capacity_;
  return stats;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache::PlanCache(size_t capacity) : core_(capacity) {}

StatusOr<std::shared_ptr<const VariantPlan>> PlanCache::GetOrPlan(const std::string& key,
                                                                  const Factory& factory,
                                                                  bool* was_hit) {
  auto erased = core_.GetOr(
      key,
      [&factory]() -> StatusOr<internal::LruCacheCore::ValuePtr> {
        StatusOr<VariantPlan> plan = factory();
        if (!plan.ok()) {
          return plan.status();
        }
        return internal::LruCacheCore::ValuePtr(
            std::make_shared<const VariantPlan>(std::move(*plan)));
      },
      was_hit);
  if (!erased.ok()) {
    return erased.status();
  }
  return std::static_pointer_cast<const VariantPlan>(*erased);
}

std::shared_ptr<const VariantPlan> PlanCache::Lookup(const std::string& key) {
  return std::static_pointer_cast<const VariantPlan>(core_.Lookup(key));
}

void PlanCache::Insert(const std::string& key, std::shared_ptr<const VariantPlan> plan) {
  core_.Insert(key, std::move(plan));
}

void PlanCache::Clear() { core_.Clear(); }

PlanCacheStats PlanCache::stats() const { return core_.stats(); }

// ---------------------------------------------------------------------------
// IrSystemCache
// ---------------------------------------------------------------------------

IrSystemCache::IrSystemCache(size_t capacity) : core_(capacity) {}

StatusOr<std::shared_ptr<const core::IrNvxSystem>> IrSystemCache::GetOrBuild(
    const std::string& key, const Factory& factory, bool* was_hit) {
  auto erased = core_.GetOr(
      key,
      [&factory]() -> StatusOr<internal::LruCacheCore::ValuePtr> {
        StatusOr<std::shared_ptr<const core::IrNvxSystem>> system = factory();
        if (!system.ok()) {
          return system.status();
        }
        return internal::LruCacheCore::ValuePtr(std::move(*system));
      },
      was_hit);
  if (!erased.ok()) {
    return erased.status();
  }
  return std::static_pointer_cast<const core::IrNvxSystem>(*erased);
}

std::shared_ptr<const core::IrNvxSystem> IrSystemCache::Lookup(const std::string& key) {
  return std::static_pointer_cast<const core::IrNvxSystem>(core_.Lookup(key));
}

void IrSystemCache::Clear() { core_.Clear(); }

PlanCacheStats IrSystemCache::stats() const { return core_.stats(); }

}  // namespace api
}  // namespace bunshin
