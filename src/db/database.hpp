#pragma once
/// \file database.hpp
/// Owning container for one design: floorplan, cells, nets, pins.
///
/// The Database is deliberately dumb storage plus name lookup; geometric
/// bookkeeping (which cells sit where) lives in SegmentGrid, and all
/// algorithmic logic lives in mrlg::legalize / mrlg::gp.

#include <cstdint>
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

/// One pin index in CSR form (Database::finalize_pins): owner o's pins are
/// ids[offsets[o], offsets[o + 1]), in ascending id. An owner past the end
/// of `offsets` was added after the build and has none.
struct PinIndex {
    std::vector<std::uint32_t> offsets;
    std::vector<PinId> ids;

    std::span<const PinId> of(std::size_t owner) const {
        if (owner + 1 >= offsets.size()) {
            return {};
        }
        return {ids.data() + offsets[owner], ids.data() + offsets[owner + 1]};
    }
    std::size_t bytes() const {
        return offsets.capacity() * sizeof(std::uint32_t) +
               ids.capacity() * sizeof(PinId);
    }
};

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
    /// Appends one Pin record. cell_pins and net_pins list it only after
    /// the next finalize_pins().
    PinId add_pin(CellId cell, NetId net, double offset_x, double offset_y)
        MRLG_REQUIRES(grid_write_cap());
    /// Builds the cell→pins and net→pins indexes from pins(): per index an
    /// offset array and an id array, built by a counting pass and a fill
    /// pass. Call it once after the last add_pin. A cell or net added
    /// later has no pins.
    void finalize_pins() MRLG_REQUIRES(grid_write_cap());
    /// The pins of `c` (of `n`) in ascending id, which is add_pin's call
    /// order. Throws AssertionError naming finalize_pins when pins were
    /// added since its last call, so a short list is never returned.
    std::span<const PinId> cell_pins(CellId c) const {
        const std::size_t i = check(c);
        check_pins_indexed();
        return cell_pins_.of(i);
    }
    std::span<const PinId> net_pins(NetId n) const {
        const std::size_t i = check(n);
        check_pins_indexed();
        return net_pins_.of(i);
    }
    const Net& net(NetId id) const { return nets_[check(id)]; }
    Net& net(NetId id) MRLG_REQUIRES(grid_write_cap()) {
        return nets_[check(id)];
    }
    const std::vector<Net>& nets() const { return nets_; }
    const Pin& pin(PinId id) const { return pins_[check(id)]; }
    const std::vector<Pin>& pins() const { return pins_; }
    /// The pin indexes themselves, as last built (audit, tests).
    const PinIndex& cell_pin_index() const { return cell_pins_; }
    const PinIndex& net_pin_index() const { return net_pins_; }
    PinIndex& mutable_cell_pin_index_for_test()
        MRLG_REQUIRES(grid_write_cap()) {
        return cell_pins_;
    }
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
    /// including per-element heap like names) for the obs memory-telemetry
    /// block. The pins and name_maps entries are exact: the Pin records
    /// with both pin indexes, and the two name tables. O(n) walk; call it
    /// at report time, not in hot loops.
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
    void check_pins_indexed() const {
        MRLG_ASSERT(indexed_pins_ == pins_.size(),
                    "pins were added since the last finalize_pins()");
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
    PinIndex cell_pins_;
    PinIndex net_pins_;
    /// pins_.size() at the last finalize_pins(): the indexes list exactly
    /// the first indexed_pins_ pins.
    std::size_t indexed_pins_ = 0;
    NameIndex cell_index_;
    NameIndex net_index_;
};

}  // namespace mrlg
