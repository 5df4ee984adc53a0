#include "solver/model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace dsct::lp {

int Model::addVariable(double lower, double upper, double objective,
                       VarType type, std::string name) {
  DSCT_CHECK_MSG(lower <= upper,
                 "variable bounds inverted: [" << lower << ", " << upper << "]");
  DSCT_CHECK_MSG(!std::isnan(lower) && !std::isnan(upper) && !std::isnan(objective),
                 "NaN in variable definition");
  if (type == VarType::kBinary) {
    DSCT_CHECK_MSG(lower >= 0.0 && upper <= 1.0, "binary bounds must be in [0,1]");
  }
  variables_.push_back({lower, upper, objective, type, std::move(name)});
  return static_cast<int>(variables_.size()) - 1;
}

int Model::addBinary(double objective, std::string name) {
  return addVariable(0.0, 1.0, objective, VarType::kBinary, std::move(name));
}

int Model::addConstraint(std::vector<std::pair<int, double>> coeffs,
                         Sense sense, double rhs, std::string name) {
  for (const auto& [var, coeff] : coeffs) {
    DSCT_CHECK_MSG(var >= 0 && var < numVariables(),
                   "constraint references unknown variable " << var);
    DSCT_CHECK(!std::isnan(coeff));
  }
  DSCT_CHECK(!std::isnan(rhs));
  constraints_.push_back({std::move(coeffs), sense, rhs, std::move(name)});
  return static_cast<int>(constraints_.size()) - 1;
}

int Model::numIntegerVariables() const {
  return static_cast<int>(
      std::count_if(variables_.begin(), variables_.end(), [](const Variable& v) {
        return v.type != VarType::kContinuous;
      }));
}

const Variable& Model::variable(int j) const {
  DSCT_CHECK(j >= 0 && j < numVariables());
  return variables_[static_cast<std::size_t>(j)];
}

const Constraint& Model::constraint(int i) const {
  DSCT_CHECK(i >= 0 && i < numConstraints());
  return constraints_[static_cast<std::size_t>(i)];
}

double Model::objectiveValue(std::span<const double> x) const {
  DSCT_CHECK(x.size() == variables_.size());
  double value = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    value += variables_[j].objective * x[j];
  }
  return value;
}

double Model::maxViolation(std::span<const double> x) const {
  DSCT_CHECK(x.size() == variables_.size());
  double worst = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    worst = std::max(worst, variables_[j].lower - x[j]);
    worst = std::max(worst, x[j] - variables_[j].upper);
  }
  for (const Constraint& row : constraints_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.coeffs) {
      lhs += coeff * x[static_cast<std::size_t>(var)];
    }
    switch (row.sense) {
      case Sense::kLe:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case Sense::kGe:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case Sense::kEq:
        worst = std::max(worst, std::fabs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

bool Model::isFeasible(std::span<const double> x, double tol) const {
  return maxViolation(x) <= tol;
}

namespace {

// FNV-1a over the raw bit patterns.
inline void hashMix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
}

inline void hashDouble(std::uint64_t& h, double v) {
  hashMix(h, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
}

}  // namespace

std::uint64_t structuralFingerprint(const Model& model) {
  std::uint64_t h = 1469598103934665603ULL;
  hashMix(h, static_cast<std::uint64_t>(model.numVariables()));
  hashMix(h, static_cast<std::uint64_t>(model.numConstraints()));
  hashMix(h, model.maximize() ? 1 : 2);
  for (const Variable& v : model.variables()) hashDouble(h, v.objective);
  for (const Constraint& row : model.constraints()) {
    hashMix(h, static_cast<std::uint64_t>(row.sense) + 3);
    hashMix(h, static_cast<std::uint64_t>(row.coeffs.size()));
    for (const auto& [var, coeff] : row.coeffs) {
      hashMix(h, static_cast<std::uint64_t>(var));
      hashDouble(h, coeff);
    }
  }
  return h;
}

}  // namespace dsct::lp
