#include "ilp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace mrlg::ilp {

namespace {

/// Pivot budget per phase; past it the solve reports kIterLimit.
constexpr int kMaxIters = 20000;
/// Tolerance of the reduced-cost, pivot and ratio tests.
constexpr double kEps = 1e-9;

/// Dense tableau; row 0..m-1 are constraints, objective handled separately.
class Tableau {
public:
    Tableau(int rows, int cols) : m_(rows), n_(cols),
          a_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
             0.0) {}

    double& at(int r, int c) {
        return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(c)];
    }
    double at(int r, int c) const {
        return a_[static_cast<std::size_t>(r) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(c)];
    }
    int rows() const { return m_; }
    int cols() const { return n_; }

    /// Gauss pivot on (pr, pc); normalizes the pivot row.
    void pivot(int pr, int pc) {
        const double pv = at(pr, pc);
        for (int c = 0; c < n_; ++c) {
            at(pr, c) /= pv;
        }
        for (int r = 0; r < m_; ++r) {
            if (r == pr) {
                continue;
            }
            const double f = at(r, pc);
            if (f == 0.0) {
                continue;
            }
            for (int c = 0; c < n_; ++c) {
                at(r, c) -= f * at(pr, c);
            }
        }
    }

private:
    int m_;
    int n_;
    std::vector<double> a_;
};

struct StdForm {
    // Columns: [0, ny) shifted model vars, [ny, ny+ns) slacks/surplus,
    // [ny+ns, ny+ns+na) artificials. rhs per row.
    int ny = 0;
    int ns = 0;
    int na = 0;
    std::vector<std::vector<double>> rows;  ///< Dense over all columns.
    std::vector<double> rhs;
    std::vector<int> art_of_row;  ///< Artificial column of row, or -1.
};

}  // namespace

LpResult solve_lp(const Model& model,
                  const std::vector<double>* lb_override,
                  const std::vector<double>* ub_override) {
    LpResult result;
    const int ny = model.num_vars();
    std::vector<double> lb(static_cast<std::size_t>(ny));
    std::vector<double> ub(static_cast<std::size_t>(ny));
    for (int i = 0; i < ny; ++i) {
        lb[static_cast<std::size_t>(i)] =
            lb_override ? (*lb_override)[static_cast<std::size_t>(i)]
                        : model.vars()[static_cast<std::size_t>(i)].lb;
        ub[static_cast<std::size_t>(i)] =
            ub_override ? (*ub_override)[static_cast<std::size_t>(i)]
                        : model.vars()[static_cast<std::size_t>(i)].ub;
        if (lb[static_cast<std::size_t>(i)] >
            ub[static_cast<std::size_t>(i)] + kEps) {
            return result;  // empty domain
        }
    }

    // Gather raw rows: model constraints with vars shifted by lb, plus
    // upper-bound rows y_i <= ub_i - lb_i.
    struct RawRow {
        std::vector<double> a;  // size ny
        Sense sense;
        double rhs;
    };
    std::vector<RawRow> raw;
    raw.reserve(static_cast<std::size_t>(model.num_constraints() + ny));
    for (const Constraint& c : model.constraints()) {
        RawRow r;
        r.a.assign(static_cast<std::size_t>(ny), 0.0);
        r.rhs = c.rhs;
        r.sense = c.sense;
        for (const Term& t : c.terms) {
            r.a[static_cast<std::size_t>(t.var)] += t.coef;
            r.rhs -= t.coef * lb[static_cast<std::size_t>(t.var)];
        }
        raw.push_back(std::move(r));
    }
    for (int i = 0; i < ny; ++i) {
        const double range = ub[static_cast<std::size_t>(i)] -
                             lb[static_cast<std::size_t>(i)];
        RawRow r;
        r.a.assign(static_cast<std::size_t>(ny), 0.0);
        r.a[static_cast<std::size_t>(i)] = 1.0;
        r.sense = Sense::kLe;
        r.rhs = range;
        raw.push_back(std::move(r));
    }

    // Count slack columns; normalize rhs >= 0.
    const int m = static_cast<int>(raw.size());
    int ns = 0;
    for (const RawRow& r : raw) {
        if (r.sense != Sense::kEq) {
            ++ns;
        }
    }
    // Build full rows; decide slack sign; detect basis candidates.
    const int total_pre_art = ny + ns;
    std::vector<std::vector<double>> rows(
        static_cast<std::size_t>(m),
        std::vector<double>(static_cast<std::size_t>(total_pre_art), 0.0));
    std::vector<double> rhs(static_cast<std::size_t>(m), 0.0);
    std::vector<int> basis_col(static_cast<std::size_t>(m), -1);
    int slack_cursor = ny;
    int na = 0;
    std::vector<int> needs_art;
    for (int r = 0; r < m; ++r) {
        RawRow& rr = raw[static_cast<std::size_t>(r)];
        double sign = 1.0;
        if (rr.rhs < 0.0) {
            sign = -1.0;
            rr.rhs = -rr.rhs;
            for (double& v : rr.a) {
                v = -v;
            }
            if (rr.sense == Sense::kLe) {
                rr.sense = Sense::kGe;
            } else if (rr.sense == Sense::kGe) {
                rr.sense = Sense::kLe;
            }
        }
        static_cast<void>(sign);
        for (int c = 0; c < ny; ++c) {
            rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
                rr.a[static_cast<std::size_t>(c)];
        }
        rhs[static_cast<std::size_t>(r)] = rr.rhs;
        if (rr.sense == Sense::kLe) {
            rows[static_cast<std::size_t>(r)]
                [static_cast<std::size_t>(slack_cursor)] = 1.0;
            basis_col[static_cast<std::size_t>(r)] = slack_cursor;
            ++slack_cursor;
        } else if (rr.sense == Sense::kGe) {
            rows[static_cast<std::size_t>(r)]
                [static_cast<std::size_t>(slack_cursor)] = -1.0;
            ++slack_cursor;
            needs_art.push_back(r);
            ++na;
        } else {
            needs_art.push_back(r);
            ++na;
        }
    }

    const int ncols = ny + ns + na;
    Tableau t(m + 1, ncols + 1);  // last row = objective workspace
    for (int r = 0; r < m; ++r) {
        for (int c = 0; c < ny + ns; ++c) {
            t.at(r, c) = rows[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(c)];
        }
        t.at(r, ncols) = rhs[static_cast<std::size_t>(r)];
    }
    {
        int art_cursor = ny + ns;
        for (const int r : needs_art) {
            t.at(r, art_cursor) = 1.0;
            basis_col[static_cast<std::size_t>(r)] = art_cursor;
            ++art_cursor;
        }
    }

    const int obj_row = m;
    auto run_simplex = [&](int phase) -> LpStatus {
        for (int iter = 0; iter < kMaxIters; ++iter) {
            // Bland: entering = lowest-index column with negative reduced
            // cost. In phase 1, artificial columns may not re-enter.
            int pc = -1;
            const int limit = phase == 1 ? ncols : ny + ns;
            for (int c = 0; c < limit; ++c) {
                if (phase == 1 && c >= ny + ns) {
                    continue;
                }
                if (t.at(obj_row, c) < -kEps) {
                    pc = c;
                    break;
                }
            }
            if (pc < 0) {
                return LpStatus::kOptimal;
            }
            int pr = -1;
            double best_ratio = std::numeric_limits<double>::max();
            for (int r = 0; r < m; ++r) {
                const double a = t.at(r, pc);
                if (a > kEps) {
                    const double ratio = t.at(r, ncols) / a;
                    if (ratio < best_ratio - kEps ||
                        (std::abs(ratio - best_ratio) <= kEps &&
                         (pr < 0 ||
                          basis_col[static_cast<std::size_t>(r)] <
                              basis_col[static_cast<std::size_t>(pr)]))) {
                        best_ratio = ratio;
                        pr = r;
                    }
                }
            }
            if (pr < 0) {
                return LpStatus::kUnbounded;
            }
            t.pivot(pr, pc);
            basis_col[static_cast<std::size_t>(pr)] = pc;
        }
        return LpStatus::kIterLimit;
    };

    // ---- Phase 1: minimize sum of artificials. ----
    if (na > 0) {
        for (int c = 0; c <= ncols; ++c) {
            t.at(obj_row, c) = 0.0;
        }
        for (int c = ny + ns; c < ncols; ++c) {
            t.at(obj_row, c) = 1.0;
        }
        // Eliminate basic artificial columns from the objective row.
        for (int r = 0; r < m; ++r) {
            const int bc = basis_col[static_cast<std::size_t>(r)];
            if (bc >= ny + ns) {
                for (int c = 0; c <= ncols; ++c) {
                    t.at(obj_row, c) -= t.at(r, c);
                }
            }
        }
        const LpStatus s1 = run_simplex(1);
        if (s1 == LpStatus::kIterLimit) {
            result.status = s1;
            return result;
        }
        if (-t.at(obj_row, ncols) > 1e-6) {
            result.status = LpStatus::kInfeasible;
            return result;
        }
        // Drive remaining artificials out of the basis.
        for (int r = 0; r < m; ++r) {
            const int bc = basis_col[static_cast<std::size_t>(r)];
            if (bc >= ny + ns) {
                int pc = -1;
                for (int c = 0; c < ny + ns; ++c) {
                    if (std::abs(t.at(r, c)) > 1e-7) {
                        pc = c;
                        break;
                    }
                }
                if (pc >= 0) {
                    t.pivot(r, pc);
                    basis_col[static_cast<std::size_t>(r)] = pc;
                }
                // else: redundant row; harmless to keep (all zeros).
            }
        }
    }

    // ---- Phase 2: minimize the real objective over shifted vars. ----
    for (int c = 0; c <= ncols; ++c) {
        t.at(obj_row, c) = 0.0;
    }
    for (int i = 0; i < ny; ++i) {
        t.at(obj_row, i) = model.vars()[static_cast<std::size_t>(i)].obj;
    }
    // Eliminate basic columns from the objective row.
    for (int r = 0; r < m; ++r) {
        const int bc = basis_col[static_cast<std::size_t>(r)];
        if (bc >= 0 && bc < ny + ns) {
            const double f = t.at(obj_row, bc);
            if (f != 0.0) {
                for (int c = 0; c <= ncols; ++c) {
                    t.at(obj_row, c) -= f * t.at(r, c);
                }
            }
        }
    }
    const LpStatus s2 = run_simplex(2);
    if (s2 != LpStatus::kOptimal) {
        result.status = s2;
        return result;
    }

    // Extract solution.
    std::vector<double> y(static_cast<std::size_t>(ny), 0.0);
    for (int r = 0; r < m; ++r) {
        const int bc = basis_col[static_cast<std::size_t>(r)];
        if (bc >= 0 && bc < ny) {
            y[static_cast<std::size_t>(bc)] = t.at(r, ncols);
        }
    }
    result.x.resize(static_cast<std::size_t>(ny));
    for (int i = 0; i < ny; ++i) {
        result.x[static_cast<std::size_t>(i)] =
            y[static_cast<std::size_t>(i)] + lb[static_cast<std::size_t>(i)];
    }
    result.obj = model.objective_value(result.x);
    result.status = LpStatus::kOptimal;
    return result;
}

}  // namespace mrlg::ilp
