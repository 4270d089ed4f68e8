#include "dp/net_cache.hpp"

#include <algorithm>
#include <limits>

namespace mrlg {

NetHpwlCache::NetHpwlCache(const Database& db) : db_(db) {
    hpwl_.resize(db.nets().size());
    for (std::size_t i = 0; i < db.nets().size(); ++i) {
        hpwl_[i] = net_hpwl(NetId{static_cast<NetId::underlying>(i)});
        total_ += hpwl_[i];
    }
}

double NetHpwlCache::refresh(NetId n) {
    const double fresh = net_hpwl(n);
    const double delta = fresh - hpwl_[n.index()];
    hpwl_[n.index()] = fresh;
    total_ += delta;
    return delta;
}

double NetHpwlCache::net_hpwl(NetId n) const {
    const std::span<const PinId> pins = db_.net_pins(n);
    if (pins.size() < 2) {
        return 0.0;
    }
    const double sw = db_.floorplan().site_w_um();
    const double sh = db_.floorplan().site_h_um();
    double xl = std::numeric_limits<double>::max();
    double xh = std::numeric_limits<double>::lowest();
    double yl = xl;
    double yh = xh;
    for (const PinId pid : pins) {
        const Pin& p = db_.pin(pid);
        const Cell& c = db_.cell(p.cell);
        const double px = static_cast<double>(c.x()) + p.offset_x;
        const double py = static_cast<double>(c.y()) + p.offset_y;
        xl = std::min(xl, px);
        xh = std::max(xh, px);
        yl = std::min(yl, py);
        yh = std::max(yh, py);
    }
    return (xh - xl) * sw + (yh - yl) * sh;
}

}  // namespace mrlg
