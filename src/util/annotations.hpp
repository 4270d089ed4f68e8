#pragma once
/// \file annotations.hpp
/// Capability annotations for Clang's thread-safety analysis
/// (-Wthread-safety), plus mrlg's own effect markers.
///
/// Two cooperating enforcement layers use these macros (docs/ANALYSIS.md):
///
///  * Clang thread-safety analysis (the `analyze-effects` CMake preset,
///    -Wthread-safety -Werror) checks the *write side*: every mutating
///    entry point of the shared placement state (Database / SegmentGrid /
///    Cell position setters, mll_commit, rip-up) carries
///    MRLG_REQUIRES(grid_write_cap()), so a mutation can only be reached
///    from code that explicitly holds the GridWriteCap capability — which
///    only the serial construction and commit/retry paths acquire
///    (db/write_cap.hpp).
///  * `tools/mrlg_lint.py effects` checks the *read side*: the transitive
///    closure of mll_plan (and everything the region-parallel plan stage
///    dispatches) must never reach one of those mutators, const_cast, a
///    mutable member of the shared classes, or an unsynchronized global.
///
/// Under compilers without the attributes (GCC, MSVC) every macro expands
/// to nothing, so annotated code builds identically everywhere; the
/// attributes only light up under clang -Wthread-safety.
///
/// The vocabulary mirrors the documented clang attribute set (and abseil's
/// thread_annotations.h) so anyone who knows those can read these.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MRLG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MRLG_THREAD_ANNOTATION(x)  // clang without -Wthread-safety support
#endif
#else
#define MRLG_THREAD_ANNOTATION(x)  // non-clang compilers: no-op
#endif

/// Declares a class to be a capability (a mutex, or a role like
/// GridWriteCap). `x` is the name used in diagnostics.
#define MRLG_CAPABILITY(x) MRLG_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define MRLG_SCOPED_CAPABILITY MRLG_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define MRLG_GUARDED_BY(x) MRLG_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the capability.
#define MRLG_PT_GUARDED_BY(x) MRLG_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability (exclusively) to be held by the
/// caller; it is still held on return.
#define MRLG_REQUIRES(...) \
    MRLG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function requires at least shared (read) access to the capability.
#define MRLG_REQUIRES_SHARED(...) \
    MRLG_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability; caller must not already hold it.
#define MRLG_ACQUIRE(...) \
    MRLG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability; caller must hold it.
#define MRLG_RELEASE(...) \
    MRLG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Declares that the function body may assume the capability is held
/// (runtime-checked elsewhere). Used to re-establish the capability inside
/// lambdas: clang analyzes a lambda body as a separate function with an
/// empty capability set, so serial commit lambdas open with a call to an
/// assert function carrying this annotation.
#define MRLG_ASSERT_CAPABILITY(...) \
    MRLG_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define MRLG_RETURN_CAPABILITY(x) \
    MRLG_THREAD_ANNOTATION(lock_returned(x))

/// Caller must NOT hold the capability (deadlock prevention for real
/// mutexes; unused for role capabilities, which nest harmlessly).
#define MRLG_EXCLUDES(...) \
    MRLG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Opts a function out of the analysis (use sparingly, with a comment).
#define MRLG_NO_THREAD_SAFETY_ANALYSIS \
    MRLG_THREAD_ANNOTATION(no_thread_safety_analysis)

/// mrlg effect marker: declares that a function is read-only over the
/// shared placement state (Database / SegmentGrid / Cell) and touches no
/// unsynchronized global — i.e. it is safe to run on pool threads during
/// the region-parallel plan phase. Expands to nothing for every compiler;
/// `tools/mrlg_lint.py effects` cross-checks each marked function against the
/// proven read-only closure, so the marker cannot silently rot.
#define MRLG_EFFECT_READONLY /* checked by tools/mrlg_lint.py effects */
