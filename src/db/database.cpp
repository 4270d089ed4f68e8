#include "db/database.hpp"

#include "util/assert.hpp"

namespace mrlg {

CellId Database::add_cell(Cell cell) {
    MRLG_ASSERT(cell.width() > 0 && cell.height() > 0,
                "cell dimensions must be positive");
    const CellId id{static_cast<CellId::underlying>(cells_.size())};
    const bool inserted =
        cell_index_.insert(cell.name(), id.value(), NamesOf<Cell>{cells_});
    MRLG_ASSERT(inserted, "duplicate cell name: " + cell.name());
    cells_.push_back(std::move(cell));
    return id;
}

std::vector<CellId> Database::movable_cells() const {
    std::vector<CellId> out;
    out.reserve(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (!cells_[i].fixed()) {
            out.push_back(CellId{static_cast<CellId::underlying>(i)});
        }
    }
    return out;
}

void Database::find_cells(std::span<const std::string_view> names,
                          std::span<CellId> out) const {
    MRLG_ASSERT(out.size() == names.size(), "find_cells: size mismatch");
    cell_index_.find_batch(names, out, NamesOf<Cell>{cells_},
                           [this](std::int32_t id) {
                               __builtin_prefetch(
                                   &cells_[static_cast<std::size_t>(id)]);
                           });
}

NetId Database::add_net(std::string name) {
    const NetId id{static_cast<NetId::underlying>(nets_.size())};
    const bool inserted =
        net_index_.insert(name, id.value(), NamesOf<Net>{nets_});
    MRLG_ASSERT(inserted, "duplicate net name: " + name);
    nets_.emplace_back(std::move(name));
    return id;
}

void Database::presize(std::size_t cells, std::size_t nets,
                       std::size_t pins) {
    cells_.reserve(cells);
    nets_.reserve(nets);
    pins_.reserve(pins);
    cell_index_.presize(cells);
    net_index_.presize(nets);
}

PinId Database::add_pin(CellId cell_id, NetId net_id, double offset_x,
                        double offset_y) {
    check(cell_id);
    check(net_id);
    const PinId id{static_cast<PinId::underlying>(pins_.size())};
    pins_.push_back(Pin{cell_id, net_id, offset_x, offset_y});
    cells_[cell_id.index()].add_pin(id);
    nets_[net_id.index()].add_pin(id);
    return id;
}

double Database::density() const {
    const std::int64_t free_area = fp_.free_site_area();
    if (free_area <= 0) {
        return 0.0;
    }
    std::int64_t cell_area = 0;
    for (const Cell& c : cells_) {
        if (!c.fixed()) {
            cell_area += static_cast<std::int64_t>(c.width()) * c.height();
        }
    }
    return static_cast<double>(cell_area) / static_cast<double>(free_area);
}

std::size_t Database::num_single_row_cells() const {
    std::size_t n = 0;
    for (const Cell& c : cells_) {
        if (!c.fixed() && c.height() == 1) {
            ++n;
        }
    }
    return n;
}

std::size_t Database::num_multi_row_cells() const {
    std::size_t n = 0;
    for (const Cell& c : cells_) {
        if (!c.fixed() && c.height() > 1) {
            ++n;
        }
    }
    return n;
}

namespace {

/// Heap bytes a std::string actually owns (0 when the small-string
/// optimisation keeps it inline).
std::size_t string_heap_bytes(const std::string& s) {
    return s.capacity() + 1 > sizeof(std::string) ? s.capacity() + 1 : 0;
}

}  // namespace

std::vector<ArenaUsage> Database::memory_breakdown() const {
    std::vector<ArenaUsage> arenas;

    std::size_t cell_bytes = cells_.capacity() * sizeof(Cell);
    for (const Cell& c : cells_) {
        cell_bytes += string_heap_bytes(c.name());
        cell_bytes += c.pins().capacity() * sizeof(PinId);
    }
    arenas.push_back({"cells", cell_bytes, cells_.size()});

    std::size_t net_bytes = nets_.capacity() * sizeof(Net);
    for (const Net& n : nets_) {
        net_bytes += string_heap_bytes(n.name());
        net_bytes += n.pins().capacity() * sizeof(PinId);
    }
    arenas.push_back({"nets", net_bytes, nets_.size()});

    arenas.push_back(
        {"pins", pins_.capacity() * sizeof(Pin), pins_.size()});

    std::size_t fp_bytes = fp_.rows().capacity() * sizeof(Row) +
                           fp_.blockages().capacity() * sizeof(Rect) +
                           fp_.fences().capacity() * sizeof(Floorplan::Fence);
    arenas.push_back({"floorplan", fp_bytes, fp_.rows().size()});

    arenas.push_back({"name_maps",
                      cell_index_.bytes() + net_index_.bytes(),
                      cell_index_.size() + net_index_.size()});
    return arenas;
}

void Database::freeze_fixed_cells() {
    for (const Cell& c : cells_) {
        if (c.fixed()) {
            MRLG_ASSERT(c.placed(), "fixed cell must have a position: " +
                                        c.name());
            fp_.add_blockage(c.rect());
        }
    }
}

}  // namespace mrlg
