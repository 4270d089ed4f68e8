#pragma once
/// \file cell.hpp
/// Movable/fixed standard cell instance. All geometry in site units
/// (paper §2.1.1): width in site widths, height in whole rows. Its pins
/// are listed by Database::cell_pins.

#include <string>

#include "db/types.hpp"
#include "db/write_cap.hpp"
#include "util/geometry.hpp"

namespace mrlg {

class Cell {
public:
    Cell(std::string name, SiteCoord width, SiteCoord height,
         RailPhase rail_phase = RailPhase::kEven, bool fixed = false)
        : name_(std::move(name)),
          w_(width),
          h_(height),
          rail_phase_(rail_phase),
          fixed_(fixed) {}

    const std::string& name() const { return name_; }
    SiteCoord width() const { return w_; }
    SiteCoord height() const { return h_; }
    bool fixed() const { return fixed_; }
    /// True for cells spanning an even number of rows — these are the ones
    /// restricted to alternate rows (paper §2 constraint 4).
    bool even_height() const { return (h_ % 2) == 0; }
    RailPhase rail_phase() const { return rail_phase_; }
    bool multi_row() const { return h_ > 1; }

    /// Fence region this cell belongs to (ISPD2015 fence semantics):
    /// 0 = the default core region; a member of fence r may only occupy
    /// placement sites of fence r, and core cells may not enter fences.
    int region() const { return region_; }
    void set_region(int r) MRLG_REQUIRES(grid_write_cap()) { region_ = r; }

    // --- global-placement input position (fractional site units) ---------
    double gp_x() const { return gp_x_; }
    double gp_y() const { return gp_y_; }
    void set_gp(double x, double y) MRLG_REQUIRES(grid_write_cap()) {
        gp_x_ = x;
        gp_y_ = y;
    }

    // --- legalized position ----------------------------------------------
    bool placed() const { return placed_; }
    /// Lower-left corner, site units. Only meaningful when placed().
    SiteCoord x() const { return x_; }
    SiteCoord y() const { return y_; }
    Point pos() const { return Point{x_, y_}; }
    Rect rect() const { return Rect{x_, y_, w_, h_}; }
    Orient orient() const { return orient_; }

    void set_pos(SiteCoord x, SiteCoord y) MRLG_REQUIRES(grid_write_cap()) {
        x_ = x;
        y_ = y;
        placed_ = true;
    }
    /// Library code moves a placed cell only through SegmentGrid::shift,
    /// which moves its segment slots too; a direct call leaves the slots
    /// stale (audit_segment_grid reports list-geom).
    void set_x(SiteCoord x) MRLG_REQUIRES(grid_write_cap()) { x_ = x; }
    void set_orient(Orient o) MRLG_REQUIRES(grid_write_cap()) { orient_ = o; }
    void unplace() MRLG_REQUIRES(grid_write_cap()) { placed_ = false; }

private:
    std::string name_;
    SiteCoord w_;
    SiteCoord h_;
    RailPhase rail_phase_;
    bool fixed_;
    int region_ = 0;

    double gp_x_ = 0.0;
    double gp_y_ = 0.0;

    bool placed_ = false;
    SiteCoord x_ = 0;
    SiteCoord y_ = 0;
    Orient orient_ = Orient::kN;
};

}  // namespace mrlg
