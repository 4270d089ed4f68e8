#include "check/audit.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "eval/legality.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mrlg {

const char* to_string(AuditLevel level) {
    switch (level) {
        case AuditLevel::kOff:
            return "off";
        case AuditLevel::kCheap:
            return "cheap";
        case AuditLevel::kFull:
            return "full";
    }
    return "off";
}

AuditLevel audit_level_from_env() {
    const char* raw = std::getenv("MRLG_VALIDATE");
    if (raw == nullptr || *raw == '\0') {
        return AuditLevel::kOff;
    }
    std::string v(raw);
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    if (v == "off" || v == "0" || v == "none") {
        return AuditLevel::kOff;
    }
    if (v == "cheap" || v == "1") {
        return AuditLevel::kCheap;
    }
    if (v == "full" || v == "2") {
        return AuditLevel::kFull;
    }
    throw std::invalid_argument(
        "MRLG_VALIDATE needs off, cheap or full (or 0, 1, 2, none), got '" +
        std::string(raw) + "'");
}

bool AuditReport::has(const std::string& check) const {
    for (const AuditIssue& issue : issues) {
        if (issue.check == check) {
            return true;
        }
    }
    return false;
}

void AuditReport::add(std::string check, std::string message) {
    if (issues.size() >= kMaxIssues) {
        ++suppressed;
        return;
    }
    issues.push_back(AuditIssue{std::move(check), std::move(message)});
}

void AuditReport::merge(const AuditReport& other) {
    for (const AuditIssue& issue : other.issues) {
        add(issue.check, issue.message);
    }
    suppressed += other.suppressed;
}

std::string AuditReport::to_string() const {
    std::ostringstream os;
    os << "audit[" << scope << "]: ";
    if (ok()) {
        os << "ok";
        return os.str();
    }
    os << issues.size() + suppressed << " violation(s)";
    for (const AuditIssue& issue : issues) {
        os << "\n  " << issue.check << ": " << issue.message;
    }
    if (suppressed > 0) {
        os << "\n  ... " << suppressed << " further violation(s) suppressed";
    }
    return os.str();
}

void enforce(const AuditReport& report) {
    if (!report.ok()) {
        throw AssertionError(report.to_string());
    }
}

namespace {

/// "cell 'name' (#id)" — every issue names its object this way so messages
/// stay greppable and deterministic.
std::string who(const Database& db, CellId id) {
    std::ostringstream os;
    if (id.valid() && id.index() < db.num_cells()) {
        os << "cell '" << db.cell(id).name() << "' (#" << id << ")";
    } else {
        os << "cell #" << id;
    }
    return os.str();
}

/// Checks one CSR pin index (Database::finalize_pins) against pins():
/// the offsets start at 0, never decrease and end at pins().size(); every
/// list is ascending and names only pins of its owner; every pin is
/// listed exactly once. `kind` is "cell" or "net"; all findings are
/// pin-link.
template <typename OwnerOf, typename Who>
void audit_pin_index(const Database& db, const PinIndex& index,
                     std::size_t num_owners, const char* kind,
                     OwnerOf owner_of, Who who_owner, AuditReport& r) {
    const std::vector<Pin>& pins = db.pins();
    const std::vector<std::uint32_t>& off = index.offsets;
    if (off.empty()) {
        if (!pins.empty()) {
            r.add("pin-link", std::string("no ") + kind +
                                  " pin index: finalize_pins() never ran");
        }
        return;
    }
    bool shape_ok = off.front() == 0 && off.size() <= num_owners + 1 &&
                    off.back() == pins.size() &&
                    index.ids.size() == pins.size();
    for (std::size_t o = 0; shape_ok && o + 1 < off.size(); ++o) {
        shape_ok = off[o] <= off[o + 1];
    }
    if (!shape_ok) {
        std::ostringstream os;
        os << kind << " pin index offsets (" << off.size() << " for "
           << num_owners << " owners, ending at " << off.back()
           << ") do not rise from 0 to the " << pins.size() << " pins";
        r.add("pin-link", os.str());
        return;
    }
    std::vector<std::uint8_t> listed(pins.size(), 0);
    for (std::size_t o = 0; o + 1 < off.size(); ++o) {
        for (std::uint32_t k = off[o]; k < off[o + 1]; ++k) {
            const PinId pid = index.ids[k];
            std::ostringstream os;
            if (!pid.valid() || pid.index() >= pins.size()) {
                os << who_owner(o) << " lists pin #" << pid
                   << ", which does not exist";
            } else if (k > off[o] && !(index.ids[k - 1] < pid)) {
                os << who_owner(o) << " lists pin #" << pid << " after pin #"
                   << index.ids[k - 1] << ": not ascending";
            } else if (owner_of(pins[pid.index()]) != o) {
                os << who_owner(o) << " lists pin #" << pid
                   << " of another " << kind;
            } else if (listed[pid.index()]++ != 0) {
                os << "pin #" << pid << " listed twice by the " << kind
                   << " index";
            } else {
                continue;
            }
            r.add("pin-link", os.str());
        }
    }
    for (std::size_t i = 0; i < pins.size(); ++i) {
        if (listed[i] == 0) {
            std::ostringstream os;
            os << "pin #" << i << " not listed by its " << kind;
            r.add("pin-link", os.str());
        }
    }
}

std::string seg_str(const Segment& s) {
    std::ostringstream os;
    os << "segment #" << s.id << " row " << s.y << " span " << s.span;
    return os.str();
}

}  // namespace

AuditReport audit_database(const Database& db) {
    MRLG_OBS_COUNT("audit.database", 1);
    AuditReport r;
    r.scope = "database";
    const Floorplan& fp = db.floorplan();

    // Rows: bottom-up, y == index, positive width (floorplan.hpp contract).
    for (SiteCoord y = 0; y < fp.num_rows(); ++y) {
        const Row& row = fp.rows()[static_cast<std::size_t>(y)];
        if (row.y != y) {
            std::ostringstream os;
            os << "row at index " << y << " has y " << row.y;
            r.add("row-index", os.str());
        }
        if (row.num_sites <= 0) {
            std::ostringstream os;
            os << "row " << y << " has non-positive width " << row.num_sites;
            r.add("row-width", os.str());
        }
    }

    // Cells: positive geometry, sane region, name lookup round-trips.
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const CellId id{static_cast<CellId::underlying>(i)};
        const Cell& c = db.cells()[i];
        if (c.width() <= 0 || c.height() <= 0) {
            std::ostringstream os;
            os << who(db, id) << " has non-positive size " << c.width() << "x"
               << c.height();
            r.add("cell-geometry", os.str());
        }
        if (c.region() < 0) {
            r.add("cell-region", who(db, id) + " has negative fence region");
        }
        const CellId found = db.find_cell(c.name());
        if (!found.valid()) {
            r.add("name-map", who(db, id) + " missing from the name map");
        } else if (found != id && db.cell(found).name() == c.name()) {
            r.add("name-dup", who(db, id) + " shares its name with " +
                                  who(db, found));
        }
    }

    // Pins: valid references; then both CSR indexes (pin-link).
    bool refs_ok = true;
    for (std::size_t i = 0; i < db.pins().size(); ++i) {
        const Pin& p = db.pins()[i];
        const bool cell_ok =
            p.cell.valid() && p.cell.index() < db.num_cells();
        const bool net_ok = p.net.valid() && p.net.index() < db.nets().size();
        if (!cell_ok || !net_ok) {
            std::ostringstream os;
            os << "pin #" << i << " references "
               << (cell_ok ? "" : "an invalid cell ")
               << (net_ok ? "" : "an invalid net");
            r.add("pin-ref", os.str());
            refs_ok = false;
        }
    }
    if (refs_ok) {
        audit_pin_index(
            db, db.cell_pin_index(), db.num_cells(), "cell",
            [](const Pin& p) { return p.cell.index(); },
            [&](std::size_t o) {
                return who(db, CellId{static_cast<CellId::underlying>(o)});
            },
            r);
        audit_pin_index(
            db, db.net_pin_index(), db.nets().size(), "net",
            [](const Pin& p) { return p.net.index(); },
            [&](std::size_t o) {
                return "net '" + db.nets()[o].name() + "' (#" +
                       std::to_string(o) + ")";
            },
            r);
    }

    // Fences: positive region ids; rects of distinct regions disjoint
    // (floorplan.hpp: "fences of different regions must not overlap").
    const auto& fences = fp.fences();
    for (std::size_t i = 0; i < fences.size(); ++i) {
        if (fences[i].region <= 0) {
            std::ostringstream os;
            os << "fence rect #" << i << " has non-positive region "
               << fences[i].region;
            r.add("fence-region", os.str());
        }
        for (std::size_t j = i + 1; j < fences.size(); ++j) {
            if (fences[i].region != fences[j].region &&
                fences[i].rect.overlaps(fences[j].rect)) {
                std::ostringstream os;
                os << "fence rects #" << i << " (region " << fences[i].region
                   << ") and #" << j << " (region " << fences[j].region
                   << ") overlap";
                r.add("fence-overlap", os.str());
            }
        }
    }
    return r;
}

AuditReport audit_segment_grid(const Database& db, const SegmentGrid& grid,
                               AuditLevel level, bool check_rail) {
    MRLG_OBS_COUNT("audit.segment_grid", 1);
    AuditReport r;
    r.scope = "segment-grid";
    if (level == AuditLevel::kOff) {
        return r;
    }
    const Floorplan& fp = db.floorplan();

    // Per-row segment structure: sorted by x, pairwise disjoint, inside the
    // row span, tagged with the right row.
    for (SiteCoord y = 0; y < fp.num_rows(); ++y) {
        SiteCoord prev_hi = kSiteCoordMin;
        for (const SegmentId sid : grid.row_segments(y)) {
            const Segment& s = grid.segment(sid);
            if (s.y != y) {
                r.add("row-order", seg_str(s) + " indexed under the wrong row");
            }
            if (s.span.empty()) {
                r.add("segment-span", seg_str(s) + " has an empty span");
            }
            if (!fp.row(y).x_span().contains(s.span)) {
                r.add("segment-row",
                      seg_str(s) + " sticks out of its floorplan row");
            }
            if (s.span.lo < prev_hi) {
                r.add("row-order",
                      seg_str(s) + " overlaps or precedes its left neighbour");
            }
            prev_hi = s.span.hi;
        }
    }

    // Per-segment cell lists (§2.1.2): placed movable cells, x-sorted,
    // overlap-free, inside the span, crossing the row, matching the region,
    // each slot holding its cell's geometry.
    std::vector<int> appearances(db.num_cells(), 0);
    for (const Segment& s : grid.segments()) {
        SiteCoord prev_end = s.span.lo;
        for (const SegmentSlot& slot : s.cells) {
            const CellId cid = slot.id;
            if (!cid.valid() || cid.index() >= db.num_cells()) {
                std::ostringstream os;
                os << "invalid cell id #" << cid << " in " << seg_str(s);
                r.add("list-ref", os.str());
                continue;
            }
            const Cell& c = db.cell(cid);
            if (c.fixed()) {
                r.add("list-fixed",
                      "fixed " + who(db, cid) + " in " + seg_str(s));
            }
            if (!c.placed()) {
                r.add("list-placed",
                      "unplaced " + who(db, cid) + " in " + seg_str(s));
                continue;
            }
            appearances[cid.index()] += 1;
            if (slot.rect() != c.rect()) {
                std::ostringstream os;
                os << "slot of " << who(db, cid) << " in " << seg_str(s)
                   << " holds " << slot.rect() << ", the cell is at "
                   << c.rect();
                r.add("list-geom", os.str());
            }
            if (c.y() > s.y || c.y() + c.height() <= s.y) {
                r.add("list-row",
                      who(db, cid) + " does not cross " + seg_str(s));
            }
            if (c.x() < s.span.lo || c.x() + c.width() > s.span.hi) {
                r.add("list-span",
                      who(db, cid) + " outside the span of " + seg_str(s));
            }
            if (c.region() != s.region) {
                std::ostringstream os;
                os << who(db, cid) << " (region " << c.region() << ") in "
                   << seg_str(s) << " of region " << s.region;
                r.add("list-region", os.str());
            }
            if (c.x() < prev_end) {
                r.add("list-order", "overlap or order violation before " +
                                        who(db, cid) + " in " + seg_str(s));
            }
            prev_end = c.x() + c.width();
        }
    }

    // Coverage and the per-cell constraints of §2: an h-row cell sits in
    // exactly h lists; even-height cells on parity-matching rows with the
    // orientation SegmentGrid::place assigns.
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const CellId id{static_cast<CellId::underlying>(i)};
        const Cell& c = db.cells()[i];
        if (c.fixed()) {
            continue;
        }
        const int expected = c.placed() ? static_cast<int>(c.height()) : 0;
        if (appearances[i] != expected) {
            std::ostringstream os;
            os << who(db, id) << " appears in " << appearances[i]
               << " segment lists, expected " << expected;
            r.add("coverage", os.str());
        }
        if (!c.placed()) {
            continue;
        }
        if (c.y() < 0 || c.y() + c.height() > fp.num_rows()) {
            r.add("die-bounds", who(db, id) + " placed outside the die rows");
        }
        if (check_rail &&
            !rail_compatible(c.y(), c.height(), c.rail_phase())) {
            std::ostringstream os;
            os << who(db, id) << " (height " << c.height() << ", phase "
               << mrlg::to_string(c.rail_phase()) << ") on row " << c.y()
               << " violates power-rail parity";
            r.add("rail-parity", os.str());
        }
        if (check_rail && c.height() % 2 == 1) {
            // Odd-height cells flip to match the row's rail phase
            // (SegmentGrid::place); re-derive the expected orientation.
            const bool phase_match =
                (c.y() % 2 == 0) == (c.rail_phase() == RailPhase::kEven);
            const Orient expected_orient =
                phase_match ? Orient::kN : Orient::kFS;
            if (c.orient() != expected_orient) {
                std::ostringstream os;
                os << who(db, id) << " on row " << c.y() << " has orient "
                   << mrlg::to_string(c.orient()) << ", expected "
                   << mrlg::to_string(expected_orient);
                r.add("orient", os.str());
            }
        }
    }

    if (level >= AuditLevel::kFull) {
        // Independent cross-check: eval/legality re-derives overlaps with a
        // per-row sweep that never reads the segment lists, so it catches
        // classes of corruption the list checks above cannot see (and vice
        // versa).
        LegalityOptions lopts;
        lopts.check_rail_alignment = check_rail;
        lopts.require_all_placed = false;
        const LegalityReport lr = check_legality(db, grid, lopts);
        if (!lr.legal) {
            for (const std::string& msg : lr.messages) {
                r.add("legality", msg);
            }
        }
        // Segments are built by cutting rows at blockages; any intersection
        // means the grid is stale w.r.t. the floorplan.
        for (const Segment& s : grid.segments()) {
            const Rect seg_rect{s.span.lo, s.y, s.span.length(), 1};
            for (const Rect& b : fp.blockages()) {
                if (seg_rect.overlaps(b)) {
                    std::ostringstream os;
                    os << seg_str(s) << " intersects blockage " << b;
                    r.add("blockage", os.str());
                }
            }
        }
    }
    return r;
}

AuditReport audit_placement(const Database& db, const SegmentGrid& grid,
                            AuditLevel level, bool check_rail) {
    MRLG_OBS_COUNT("audit.placement", 1);
    AuditReport r;
    r.scope = "placement";
    if (level == AuditLevel::kOff) {
        return r;
    }
    r.merge(audit_database(db));
    r.merge(audit_segment_grid(db, grid, level, check_rail));
    return r;
}

}  // namespace mrlg
