#include "db/database.hpp"

#include "util/assert.hpp"

namespace mrlg {

CellId Database::add_cell(Cell cell) {
    MRLG_ASSERT(cell.width() > 0 && cell.height() > 0,
                "cell dimensions must be positive");
    const CellId id{static_cast<CellId::underlying>(cells_.size())};
    auto [it, inserted] = cell_by_name_.emplace(cell.name(), id);
    MRLG_ASSERT(inserted, "duplicate cell name: " + cell.name());
    static_cast<void>(it);
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

CellId Database::find_cell(const std::string& name) const {
    const auto it = cell_by_name_.find(name);
    return it == cell_by_name_.end() ? CellId{} : it->second;
}

NetId Database::add_net(std::string name) {
    const NetId id{static_cast<NetId::underlying>(nets_.size())};
    auto [it, inserted] = net_by_name_.emplace(name, id);
    MRLG_ASSERT(inserted, "duplicate net name: " + name);
    static_cast<void>(it);
    nets_.emplace_back(std::move(name));
    return id;
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

NetId Database::find_net(const std::string& name) const {
    const auto it = net_by_name_.find(name);
    return it == net_by_name_.end() ? NetId{} : it->second;
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

/// Rough per-entry footprint of one unordered_map node plus the bucket
/// array. Implementation-defined in detail, but capacity-proportional and
/// stable enough for trend tracking, which is all the memory block claims.
template <typename Map>
std::size_t name_map_bytes(const Map& map) {
    std::size_t bytes = map.bucket_count() * sizeof(void*);
    for (const auto& [name, id] : map) {
        bytes += sizeof(typename Map::value_type) + 2 * sizeof(void*) +
                 string_heap_bytes(name);
        static_cast<void>(id);
    }
    return bytes;
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
                      name_map_bytes(cell_by_name_) +
                          name_map_bytes(net_by_name_),
                      cell_by_name_.size() + net_by_name_.size()});
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
