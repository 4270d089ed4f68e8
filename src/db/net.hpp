#pragma once
/// \file net.hpp
/// Netlist: pins carry an offset from the owning cell's lower-left corner
/// in fractional site units; HPWL is evaluated from pin positions.

#include <string>

#include "db/types.hpp"

namespace mrlg {

/// A pin belongs to exactly one cell and one net.
struct Pin {
    CellId cell;
    NetId net;
    /// Offset from cell lower-left, fractional site units.
    double offset_x = 0.0;
    double offset_y = 0.0;
};

/// A net is its name; its pins are listed by Database::net_pins.
class Net {
public:
    explicit Net(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

private:
    std::string name_;
};

}  // namespace mrlg
