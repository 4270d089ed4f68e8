#pragma once
/// \file mutex.hpp
/// Thin std::mutex / std::condition_variable wrappers that carry clang
/// thread-safety-analysis capability attributes (util/annotations.hpp).
/// libstdc++'s std::mutex is invisible to the analysis; routing the
/// pool's synchronization through these types lets MRLG_GUARDED_BY
/// annotations on the protected members be checked at compile time under
/// the `analyze-effects` preset. Zero overhead: every method forwards
/// directly and every attribute vanishes under non-clang compilers.

#include <condition_variable>
#include <mutex>
#include <utility>

#include "util/annotations.hpp"

namespace mrlg {

/// A std::mutex that the thread-safety analysis can see.
class MRLG_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() MRLG_ACQUIRE() { mu_.lock(); }
    void unlock() MRLG_RELEASE() { mu_.unlock(); }

    /// Tells the analysis "this mutex is held here" without any runtime
    /// effect. Needed inside lambdas (condition-variable predicates)
    /// whose enclosing scope holds the lock: clang analyzes a lambda
    /// body as a separate function with an empty capability set.
    void assert_held() MRLG_ASSERT_CAPABILITY(this) {}

private:
    friend class MutexLock;
    std::mutex mu_;
};

/// RAII lock on a Mutex; also the token CondVar::wait needs. Holds a
/// std::unique_lock so a condition variable can release/reacquire it.
class MRLG_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mu) MRLG_ACQUIRE(mu) : lk_(mu.mu_) {}
    ~MutexLock() MRLG_RELEASE() {}
    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/// Condition variable working on Mutex/MutexLock. wait() takes both the
/// Mutex (for the analysis: REQUIRES proves the caller holds it) and the
/// MutexLock (for the runtime: the lock to drop while blocking).
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    template <typename Pred>
    void wait([[maybe_unused]] Mutex& mu, MutexLock& lock, Pred pred)
        MRLG_REQUIRES(mu) {
        cv_.wait(lock.lk_, std::move(pred));
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

}  // namespace mrlg
