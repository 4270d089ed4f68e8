#pragma once
/// \file database.hpp
/// Owning container for one design: floorplan, cells, nets, pins.
///
/// The Database is deliberately dumb storage plus name lookup; geometric
/// bookkeeping (which cells sit where) lives in SegmentGrid, and all
/// algorithmic logic lives in mrlg::legalize / mrlg::gp.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/arena_stats.hpp"
#include "db/cell.hpp"
#include "db/floorplan.hpp"
#include "db/name_index.hpp"
#include "db/net.hpp"
#include "db/write_cap.hpp"
#include "util/assert.hpp"

namespace mrlg {

class Database {
public:
    Database() = default;
    explicit Database(Floorplan fp) : fp_(std::move(fp)) {}

    // Mutating entry points carry MRLG_REQUIRES(grid_write_cap()): only
    // serial construction / commit phases may call them (db/write_cap.hpp).
    // The const accessors are the plan phase's whole surface.

    // --- floorplan ---------------------------------------------------------
    const Floorplan& floorplan() const { return fp_; }
    Floorplan& floorplan() MRLG_REQUIRES(grid_write_cap()) { return fp_; }

    // --- cells --------------------------------------------------------------
    CellId add_cell(Cell cell) MRLG_REQUIRES(grid_write_cap());
    const Cell& cell(CellId id) const { return cells_[check(id)]; }
    Cell& cell(CellId id) MRLG_REQUIRES(grid_write_cap()) {
        return cells_[check(id)];
    }
    const std::vector<Cell>& cells() const { return cells_; }
    std::size_t num_cells() const { return cells_.size(); }
    /// Ids of all non-fixed cells, in id order.
    std::vector<CellId> movable_cells() const;
    /// Lookup by instance name; returns invalid id when absent.
    CellId find_cell(std::string_view name) const {
        return CellId{cell_index_.find(name, NamesOf<Cell>{cells_})};
    }
    /// out[i] = find_cell(names[i]) for every i (`out` is as long as
    /// `names`), resolved kBatch names at a time with their slots and
    /// candidate cells prefetched (NameIndex::find_batch).
    void find_cells(std::span<const std::string_view> names,
                    std::span<CellId> out) const;

    // --- nets / pins ---------------------------------------------------------
    NetId add_net(std::string name) MRLG_REQUIRES(grid_write_cap());
    PinId add_pin(CellId cell, NetId net, double offset_x, double offset_y)
        MRLG_REQUIRES(grid_write_cap());
    const Net& net(NetId id) const { return nets_[check(id)]; }
    Net& net(NetId id) MRLG_REQUIRES(grid_write_cap()) {
        return nets_[check(id)];
    }
    const std::vector<Net>& nets() const { return nets_; }
    const Pin& pin(PinId id) const { return pins_[check(id)]; }
    const std::vector<Pin>& pins() const { return pins_; }
    NetId find_net(std::string_view name) const {
        return NetId{net_index_.find(name, NamesOf<Net>{nets_})};
    }

    /// Makes room for at least this many cells, nets and pins in total,
    /// name indices included, so a reader that knows the counts loads
    /// without regrowing. Changes no content.
    void presize(std::size_t cells, std::size_t nets, std::size_t pins)
        MRLG_REQUIRES(grid_write_cap());
    /// The name indices themselves (memory accounting, tests).
    const NameIndex& cell_index() const { return cell_index_; }
    const NameIndex& net_index() const { return net_index_; }

    // --- derived stats -------------------------------------------------------
    /// Movable cell area divided by non-blocked row area ("Density", Table 1).
    double density() const;
    std::size_t num_single_row_cells() const;
    std::size_t num_multi_row_cells() const;

    /// Registers every fixed cell's footprint as a floorplan blockage (so
    /// SegmentGrid::build treats them as obstacles). Call once after all
    /// fixed cells have received their positions.
    void freeze_fixed_cells() MRLG_REQUIRES(grid_write_cap());

    /// Capacity-based bytes per storage arena (cells/nets/pins/name maps,
    /// including per-element heap like names and pin lists) for the obs
    /// memory-telemetry block. The name_maps entry is exact: the two
    /// index tables' bytes. O(n) walk; call it at report time, not in hot
    /// loops.
    std::vector<ArenaUsage> memory_breakdown() const;

private:
    // Inline: cell(id) sits on every hot path, and the always-on check
    // must not cost a call.
    std::size_t check(CellId id) const {
        MRLG_ASSERT(id.valid() && id.index() < cells_.size(), "bad CellId");
        return id.index();
    }
    std::size_t check(NetId id) const {
        MRLG_ASSERT(id.valid() && id.index() < nets_.size(), "bad NetId");
        return id.index();
    }
    std::size_t check(PinId id) const {
        MRLG_ASSERT(id.valid() && id.index() < pins_.size(), "bad PinId");
        return id.index();
    }
    /// The indices' name_of: reads the names cells_ or nets_ own, so the
    /// indices store no strings.
    template <typename T>
    struct NamesOf {
        const std::vector<T>& items;
        std::string_view operator()(std::int32_t id) const {
            return items[static_cast<std::size_t>(id)].name();
        }
    };

    Floorplan fp_;
    std::vector<Cell> cells_;
    std::vector<Net> nets_;
    std::vector<Pin> pins_;
    NameIndex cell_index_;
    NameIndex net_index_;
};

}  // namespace mrlg
