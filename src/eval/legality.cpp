#include "eval/legality.hpp"

#include <algorithm>

#include "obs/trace.hpp"

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

LegalityReport check_legality(const Database& db, const SegmentGrid& grid,
                              const LegalityOptions& opts) {
    MRLG_OBS_PHASE("eval.legality");
    MRLG_OBS_COUNT("eval.legality_checks", 1);
    LegalityReport rep;
    // Counts a violation; renders its message only under the cap.
    const auto note = [&](std::size_t& counter, const auto& message) {
        rep.legal = false;
        ++counter;
        if (rep.messages.size() < kMaxLegalityMessages) {
            rep.messages.push_back(message());
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

    // Constraints 2-4, cell by cell in id order; each placed cell's row
    // slices are scattered on the way.
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const Cell& cell = db.cells()[i];
        const CellId id{static_cast<CellId::underlying>(i)};
        if (cell.fixed()) {
            continue;
        }
        if (!cell.placed()) {
            if (opts.require_all_placed) {
                note(rep.num_unplaced,
                     [&] { return "cell " + cell.name() + " is unplaced"; });
            }
            continue;
        }
        // Constraint 2+3: aligned, contained in segments row by row.
        if (!position_legal_for_cell(db, grid, id, cell.x(), cell.y(),
                                     /*check_rail_alignment=*/false)) {
            note(rep.num_out_of_rows, [&] {
                return "cell " + cell.name() + " outside rows/segments";
            });
        }
        // Constraint 4.
        if (opts.check_rail_alignment &&
            !rail_compatible(cell.y(), cell.height(), cell.rail_phase())) {
            note(rep.num_rail_violations, [&] {
                return "cell " + cell.name() + " violates power-rail parity";
            });
        }
        for (SiteCoord row = cell.y(); row < cell.y() + cell.height();
             ++row) {
            if (row >= 0 && row < num_rows) {
                per_row[static_cast<std::size_t>(row)].push_back(
                    Slice{cell.x(),
                          static_cast<SiteCoord>(cell.x() + cell.width()),
                          id});
            }
        }
    }

    // Constraint 1, row by row: sorted slices must not overlap. The sweep
    // carries the running maximum right edge (and its owning cell), not
    // just the previous slice: a wide cell can fully cover several later,
    // disjoint slices, and comparing adjacent slices only would miss every
    // covered slice after the first. Cross-row overlap of multi-row cells
    // is covered because a multi-row cell contributes a slice to every row
    // it crosses.
    for (std::vector<Slice>& row : per_row) {
        if (row.empty()) {
            continue;
        }
        std::sort(row.begin(), row.end(), [](const Slice& a, const Slice& b) {
            return a.x < b.x || (a.x == b.x && a.cell < b.cell);
        });
        SiteCoord run_hi = row[0].x_hi;
        CellId run_cell = row[0].cell;
        for (std::size_t i = 1; i < row.size(); ++i) {
            if (row[i].x < run_hi) {
                note(rep.num_overlaps, [&] {
                    return "overlap between " + db.cell(run_cell).name() +
                           " and " + db.cell(row[i].cell).name();
                });
            }
            if (row[i].x_hi > run_hi) {
                run_hi = row[i].x_hi;
                run_cell = row[i].cell;
            }
        }
        if (opts.collect_overlap_pairs) {
            // Complete pair enumeration needs more than the running max:
            // under a covering cell, two covered slices may also overlap
            // each other. Output-sensitive active-interval scan: every
            // slice still open at x overlaps the new one.
            std::vector<Slice> active;
            for (const Slice& s : row) {
                std::erase_if(active,
                              [&](const Slice& a) { return a.x_hi <= s.x; });
                for (const Slice& a : active) {
                    rep.overlap_pairs.emplace_back(a.cell, s.cell);
                }
                active.push_back(s);
            }
        }
    }

    return rep;
}

}  // namespace mrlg
