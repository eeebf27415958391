#include "pdc/life/grid.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pdc::life {

namespace {

/// rows * cols; throws std::invalid_argument on a zero dimension or a
/// product that does not fit in size_t.
std::size_t cell_count(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("grid dimensions must be > 0");
  if (rows > std::numeric_limits<std::size_t>::max() / cols)
    throw std::invalid_argument("grid dimensions overflow size_t");
  return rows * cols;
}

}  // namespace

Grid::Grid(std::size_t rows, std::size_t cols, Boundary boundary)
    : rows_(rows),
      cols_(cols),
      boundary_(boundary),
      cells_(cell_count(rows, cols)) {}

bool Grid::get(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("grid index");
  return cells_.data()[r * cols_ + c] != 0;
}

void Grid::set(std::size_t r, std::size_t c, bool alive) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("grid index");
  cells_.data()[r * cols_ + c] = alive ? 1 : 0;
}

std::size_t Grid::population() const {
  const std::uint8_t* cells = cells_.data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) n += cells[i];
  return n;
}

int Grid::live_neighbors(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("grid index");
  int count = 0;
  for (int dr = -1; dr <= 1; ++dr) {
    for (int dc = -1; dc <= 1; ++dc) {
      if (dr == 0 && dc == 0) continue;
      auto rr = static_cast<long>(r) + dr;
      auto cc = static_cast<long>(c) + dc;
      if (boundary_ == Boundary::kTorus) {
        rr = (rr + static_cast<long>(rows_)) % static_cast<long>(rows_);
        cc = (cc + static_cast<long>(cols_)) % static_cast<long>(cols_);
      } else if (rr < 0 || cc < 0 || rr >= static_cast<long>(rows_) ||
                 cc >= static_cast<long>(cols_)) {
        continue;
      }
      count += cells_.data()[static_cast<std::size_t>(rr) * cols_ +
                             static_cast<std::size_t>(cc)];
    }
  }
  return count;
}

bool Grid::next_state(std::size_t r, std::size_t c) const {
  const int n = live_neighbors(r, c);
  const bool alive = get(r, c);
  return alive ? (n == 2 || n == 3) : (n == 3);
}

std::string Grid::to_string() const {
  std::string out;
  out.reserve(rows_ * (cols_ + 1));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c)
      out += cells_.data()[r * cols_ + c] ? 'O' : '.';
    out += '\n';
  }
  return out;
}

const std::uint8_t* Grid::row_data(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("grid row");
  return cells_.data() + r * cols_;
}

std::uint8_t* Grid::row_data(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("grid row");
  return cells_.data() + r * cols_;
}

Grid parse_plaintext(const std::string& text, Boundary boundary) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    width = std::max(width, line.size());
    lines.push_back(line);
  }
  if (lines.empty()) throw std::invalid_argument("empty pattern");

  Grid g(lines.size(), width, boundary);
  for (std::size_t r = 0; r < lines.size(); ++r) {
    for (std::size_t c = 0; c < lines[r].size(); ++c) {
      const char ch = lines[r][c];
      if (ch == 'O' || ch == 'o' || ch == '*') {
        g.set(r, c, true);
      } else if (ch != '.' && ch != ' ') {
        throw std::invalid_argument(std::string("bad pattern character: ") +
                                    ch);
      }
    }
  }
  return g;
}

void stamp(Grid& board, const Grid& pattern, std::size_t r, std::size_t c) {
  if (r + pattern.rows() > board.rows() || c + pattern.cols() > board.cols())
    throw std::out_of_range("pattern does not fit");
  for (std::size_t pr = 0; pr < pattern.rows(); ++pr)
    for (std::size_t pc = 0; pc < pattern.cols(); ++pc)
      board.set(r + pr, c + pc, pattern.get(pr, pc));
}

Grid glider(Boundary boundary) {
  return parse_plaintext(".O.\n..O\nOOO\n", boundary);
}

Grid blinker(Boundary boundary) {
  return parse_plaintext("OOO\n", boundary);
}

Grid block(Boundary boundary) {
  return parse_plaintext("OO\nOO\n", boundary);
}

Grid random_grid(std::size_t rows, std::size_t cols, double density,
                 std::uint64_t seed, Boundary boundary) {
  if (density < 0.0 || density > 1.0)
    throw std::invalid_argument("density must be in [0,1]");
  Grid g(rows, cols, boundary);
  std::uint64_t s = seed ? seed : 1;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      if (static_cast<double>(s % 10000) < density * 10000.0)
        g.set(r, c, true);
    }
  }
  return g;
}

}  // namespace pdc::life
