#include "eval/legality.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mrlg {

bool rail_compatible(SiteCoord y, SiteCoord height, RailPhase p) {
    if (height % 2 != 0) {
        return true;  // odd-height cells flip onto either parity
    }
    const RailPhase row_phase =
        (y % 2 == 0) ? RailPhase::kEven : RailPhase::kOdd;
    return row_phase == p;
}

bool position_legal_for_cell(const Database& db, const SegmentGrid& grid,
                             CellId c, SiteCoord x, SiteCoord y,
                             bool check_rail_alignment) {
    const Cell& cell = db.cell(c);
    if (y < 0 || y + cell.height() > db.floorplan().num_rows()) {
        return false;
    }
    if (check_rail_alignment &&
        !rail_compatible(y, cell.height(), cell.rail_phase())) {
        return false;
    }
    const Span xs{x, x + cell.width()};
    for (SiteCoord row = y; row < y + cell.height(); ++row) {
        if (!grid.containing_segment(row, xs, cell.region()).valid()) {
            return false;
        }
    }
    return true;
}

namespace {

/// A violation found by a parallel chunk, recorded id-only so message
/// strings are built serially (and only up to the message cap).
struct Violation {
    enum class Kind { kUnplaced, kOutOfRows, kRail, kOverlap };
    Kind kind;
    CellId a;
    CellId b;  ///< Second party of an overlap.
};

}  // namespace

LegalityReport check_legality(const Database& db, const SegmentGrid& grid,
                              const LegalityOptions& opts) {
    MRLG_OBS_PHASE("eval.legality");
    MRLG_OBS_COUNT("eval.legality_checks", 1);
    LegalityReport rep;
    auto note = [&](const Violation& v) {
        rep.legal = false;
        switch (v.kind) {
            case Violation::Kind::kUnplaced:
                ++rep.num_unplaced;
                break;
            case Violation::Kind::kOutOfRows:
                ++rep.num_out_of_rows;
                break;
            case Violation::Kind::kRail:
                ++rep.num_rail_violations;
                break;
            case Violation::Kind::kOverlap:
                ++rep.num_overlaps;
                break;
        }
        if (rep.messages.size() >= kMaxLegalityMessages) {
            return;
        }
        switch (v.kind) {
            case Violation::Kind::kUnplaced:
                rep.messages.push_back("cell " + db.cell(v.a).name() +
                                       " is unplaced");
                break;
            case Violation::Kind::kOutOfRows:
                rep.messages.push_back("cell " + db.cell(v.a).name() +
                                       " outside rows/segments");
                break;
            case Violation::Kind::kRail:
                rep.messages.push_back("cell " + db.cell(v.a).name() +
                                       " violates power-rail parity");
                break;
            case Violation::Kind::kOverlap:
                rep.messages.push_back("overlap between " +
                                       db.cell(v.a).name() + " and " +
                                       db.cell(v.b).name());
                break;
        }
    };

    // Per-row slices of every placed movable cell, for the overlap sweep.
    struct Slice {
        SiteCoord x;
        SiteCoord x_hi;
        CellId cell;
    };
    const SiteCoord num_rows = db.floorplan().num_rows();
    std::vector<std::vector<Slice>> per_row(
        static_cast<std::size_t>(std::max<SiteCoord>(num_rows, 0)));

    // Phase 1 — per-cell checks (constraints 2-4), parallel over fixed
    // cell chunks; each chunk gathers id-only violation records in cell
    // order. Combining in chunk order reproduces the serial report.
    struct CellChunk {
        std::vector<Violation> violations;
    };
    constexpr std::size_t kCellGrain = 256;
    const auto cell_map = [&](std::size_t begin, std::size_t end) {
        CellChunk out;
        for (std::size_t i = begin; i < end; ++i) {
            const Cell& cell = db.cells()[i];
            const CellId id{static_cast<CellId::underlying>(i)};
            if (cell.fixed()) {
                continue;
            }
            if (!cell.placed()) {
                if (opts.require_all_placed) {
                    out.violations.push_back(
                        {Violation::Kind::kUnplaced, id, id});
                }
                continue;
            }
            // Constraint 2+3: aligned, contained in segments row by row.
            if (!position_legal_for_cell(db, grid, id, cell.x(), cell.y(),
                                         /*check_rail_alignment=*/false)) {
                out.violations.push_back(
                    {Violation::Kind::kOutOfRows, id, id});
            }
            // Constraint 4.
            if (opts.check_rail_alignment &&
                !rail_compatible(cell.y(), cell.height(),
                                 cell.rail_phase())) {
                out.violations.push_back({Violation::Kind::kRail, id, id});
            }
        }
        return out;
    };
    const auto cell_combine = [&](CellChunk acc, CellChunk part) {
        acc.violations.insert(acc.violations.end(), part.violations.begin(),
                              part.violations.end());
        return acc;
    };
    const CellChunk cell_result =
        parallel_reduce(db.num_cells(), kCellGrain, opts.num_threads,
                        CellChunk{}, cell_map, cell_combine);
    for (const Violation& v : cell_result.violations) {
        note(v);
    }

    // Slice scatter stays serial: it is a cheap pass, and the resulting
    // per-row order is canonicalized by the sort below anyway.
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const Cell& cell = db.cells()[i];
        if (cell.fixed() || !cell.placed()) {
            continue;
        }
        const CellId id{static_cast<CellId::underlying>(i)};
        for (SiteCoord row = cell.y();
             row < cell.y() + cell.height(); ++row) {
            if (row >= 0 && row < num_rows) {
                per_row[static_cast<std::size_t>(row)].push_back(
                    Slice{cell.x(),
                          static_cast<SiteCoord>(cell.x() + cell.width()),
                          id});
            }
        }
    }

    // Phase 2 — constraint 1: per-row sweep, parallel over fixed row
    // chunks (rows are disjoint, so sorting in place is race-free).
    // Within a row, sorted slices must not overlap. The sweep carries the
    // running maximum right edge (and its owning cell), not just the
    // previous slice: a wide cell can fully cover several later, disjoint
    // slices, and comparing adjacent slices only would miss every covered
    // slice after the first. Cross-row overlap of multi-row cells is
    // covered because a multi-row cell contributes a slice to every row it
    // crosses.
    struct RowChunk {
        std::vector<Violation> violations;
        std::vector<std::pair<CellId, CellId>> pairs;
    };
    constexpr std::size_t kRowGrain = 16;
    const auto row_map = [&](std::size_t begin, std::size_t end) {
        RowChunk out;
        for (std::size_t r = begin; r < end; ++r) {
            std::vector<Slice>& row = per_row[r];
            std::sort(row.begin(), row.end(),
                      [](const Slice& a, const Slice& b) {
                          return a.x < b.x || (a.x == b.x && a.cell < b.cell);
                      });
            if (row.empty()) {
                continue;
            }
            SiteCoord run_hi = row[0].x_hi;
            CellId run_cell = row[0].cell;
            for (std::size_t i = 1; i < row.size(); ++i) {
                if (row[i].x < run_hi) {
                    out.violations.push_back(
                        {Violation::Kind::kOverlap, run_cell, row[i].cell});
                }
                if (row[i].x_hi > run_hi) {
                    run_hi = row[i].x_hi;
                    run_cell = row[i].cell;
                }
            }
            if (opts.collect_overlap_pairs) {
                // Complete pair enumeration needs more than the running
                // max: under a covering cell, two covered slices may also
                // overlap each other. Output-sensitive active-interval
                // scan: every slice still open at x overlaps the new one.
                std::vector<Slice> active;
                for (const Slice& s : row) {
                    std::erase_if(active, [&](const Slice& a) {
                        return a.x_hi <= s.x;
                    });
                    for (const Slice& a : active) {
                        out.pairs.emplace_back(a.cell, s.cell);
                    }
                    active.push_back(s);
                }
            }
        }
        return out;
    };
    const auto row_combine = [&](RowChunk acc, RowChunk part) {
        acc.violations.insert(acc.violations.end(), part.violations.begin(),
                              part.violations.end());
        acc.pairs.insert(acc.pairs.end(), part.pairs.begin(),
                         part.pairs.end());
        return acc;
    };
    RowChunk row_result =
        parallel_reduce(per_row.size(), kRowGrain, opts.num_threads,
                        RowChunk{}, row_map, row_combine);
    for (const Violation& v : row_result.violations) {
        note(v);
    }
    rep.overlap_pairs = std::move(row_result.pairs);

    return rep;
}

}  // namespace mrlg
