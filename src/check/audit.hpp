#pragma once
/// \file audit.hpp
/// Leveled invariant audits for the database and the segment grid.
///
/// The paper's correctness argument rests on structural invariants that the
/// algorithms maintain implicitly: an h-row cell appears in exactly the h
/// segment lists it crosses (§2.1.2), every list stays x-sorted and
/// overlap-free, and legalization preserves constraints 1-4 of §2. The
/// auditors here re-derive those invariants from scratch and report every
/// violation with a stable check id, so a silent bookkeeping break (or a
/// nondeterministic container leaking into an output path) is caught at the
/// step that introduced it instead of corrupting results downstream.
///
/// Levels (environment variable MRLG_VALIDATE=off|cheap|full):
///  * off   — no auditing; zero overhead.
///  * cheap — O(design) structural audits at phase boundaries.
///  * full  — cheap plus an independent full-legality cross-check
///            (eval/legality re-derives overlaps without the segment
///            lists), blockage intrusion tests, and per-step audits inside
///            the legalizer (after every commit / rip-up transaction).

#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

enum class AuditLevel { kOff = 0, kCheap = 1, kFull = 2 };

const char* to_string(AuditLevel level);

/// Parses MRLG_VALIDATE (case-insensitive "off" | "cheap" | "full").
/// Unset or empty means kOff; an unrecognized value logs one warning and
/// falls back to kOff rather than silently validating at the wrong level.
AuditLevel audit_level_from_env();

/// One invariant violation. `check` is a stable machine-readable id
/// (e.g. "list-order", "coverage", "rail-parity"); `message` names the
/// offending object so the report is actionable.
struct AuditIssue {
    std::string check;
    std::string message;
};

/// Result of one audit pass. Issue order is deterministic: auditors walk
/// containers in index order only, never by address or hash order.
struct AuditReport {
    /// Cap on recorded issues; further violations only bump `suppressed`
    /// so a badly corrupted design still yields a readable report.
    static constexpr std::size_t kMaxIssues = 64;

    std::string scope;  ///< What was audited ("database", "segment-grid", ...).
    std::vector<AuditIssue> issues;
    std::size_t suppressed = 0;

    bool ok() const { return issues.empty() && suppressed == 0; }
    /// True when some recorded issue has the given check id.
    bool has(const std::string& check) const;
    void add(std::string check, std::string message);
    /// Appends `other`'s issues (prefixing nothing; check ids are global).
    void merge(const AuditReport& other);
    /// Multi-line human-readable rendering; deterministic.
    std::string to_string() const;
};

/// Database-level invariants: rows indexed bottom-up (row i at y == i) with
/// positive widths, positive cell geometry, name lookup consistent and
/// unambiguous, pins referencing valid cells/nets (and cross-linked both
/// ways), fences of distinct regions disjoint.
AuditReport audit_database(const Database& db);

/// Segment-grid invariants of §2.1.2 against `db`:
///  * per row: segments x-sorted, pairwise disjoint, inside the row span;
///  * per segment list: cells placed, movable, x-sorted and overlap-free,
///    inside the segment span, crossing the segment's row, matching the
///    segment's fence region;
///  * coverage: every placed movable cell of height h appears in exactly h
///    lists (unplaced/fixed cells in zero);
///  * power-rail parity and orientation cross-checked against
///    eval/legality's rail_compatible (constraint 4 of §2).
/// kFull additionally runs the independent check_legality sweep (which
/// re-derives overlaps without the lists) and verifies no segment
/// intersects a floorplan blockage.
AuditReport audit_segment_grid(const Database& db, const SegmentGrid& grid,
                               AuditLevel level = AuditLevel::kCheap,
                               bool check_rail = true);

/// Umbrella audit used by the legalizer hooks (its final audit included):
/// audit_database + audit_segment_grid at the given level. kOff returns an
/// empty (ok) report.
AuditReport audit_placement(const Database& db, const SegmentGrid& grid,
                            AuditLevel level, bool check_rail = true);

/// Throws AssertionError carrying the full report when it is not ok.
void enforce(const AuditReport& report);

}  // namespace mrlg
