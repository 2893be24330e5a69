#include "core/bitmap.h"

#include <bit>

#include "common/check.h"

namespace walrus {

CoverageBitmap::CoverageBitmap(int side) : side_(side) {
  WALRUS_CHECK_GE(side, 1);
  words_.assign(WordCount(), 0);
}

CoverageBitmap::CoverageBitmap(int side, const std::vector<uint8_t>& packed)
    : CoverageBitmap(side) {
  WALRUS_CHECK_EQ(static_cast<int>(packed.size()), (side * side + 7) / 8);
  for (int bit = 0; bit < side * side; ++bit) {
    if ((packed[bit / 8] >> (bit % 8)) & 1) {
      words_[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
}

void CoverageBitmap::SetCell(int cx, int cy) {
  int bit = BitIndex(cx, cy);
  words_[bit / 64] |= uint64_t{1} << (bit % 64);
}

bool CoverageBitmap::TestCell(int cx, int cy) const {
  int bit = BitIndex(cx, cy);
  return (words_[bit / 64] >> (bit % 64)) & 1;
}

void CoverageBitmap::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
}

namespace {

/// Image coordinate of the center of cell `c` along an axis of `extent`
/// pixels split into `side` cells.
double CellCenter(int c, int extent, int side) {
  return (c + 0.5) * extent / side;
}

/// First cell in [0, side] whose center is >= bound. Centers increase with
/// the cell index, so this splits the axis in two; the estimate is only a
/// starting point, the exact double comparisons decide.
int FirstCellAtOrAfter(int bound, int extent, int side) {
  const double estimate = static_cast<double>(bound) * side / extent;
  int c = estimate <= 0.0    ? 0
          : estimate >= side ? side
                             : static_cast<int>(estimate);
  while (c > 0 && CellCenter(c - 1, extent, side) >= bound) --c;
  while (c < side && CellCenter(c, extent, side) < bound) ++c;
  return c;
}

}  // namespace

void CoverageBitmap::MarkWindow(int x, int y, int w, int h, int image_w,
                                int image_h) {
  WALRUS_DCHECK(image_w > 0 && image_h > 0);
  // The cells whose center lies in [x, x+w) x [y, y+h) form a rectangle:
  // one run of cells per axis.
  const int x_begin = FirstCellAtOrAfter(x, image_w, side_);
  const int x_end = FirstCellAtOrAfter(x + w, image_w, side_);
  const int y_begin = FirstCellAtOrAfter(y, image_h, side_);
  const int y_end = FirstCellAtOrAfter(y + h, image_h, side_);
  for (int cy = y_begin; cy < y_end; ++cy) {
    for (int cx = x_begin; cx < x_end; ++cx) SetCell(cx, cy);
  }
}

void CoverageBitmap::UnionWith(const CoverageBitmap& other) {
  WALRUS_CHECK_EQ(side_, other.side_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

int CoverageBitmap::CountSet() const {
  int count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

double CoverageBitmap::CoveredFraction() const {
  return static_cast<double>(CountSet()) / CellCount();
}

int CoverageBitmap::UnionCount(const CoverageBitmap& a,
                               const CoverageBitmap& b) {
  WALRUS_CHECK_EQ(a.side_, b.side_);
  int count = 0;
  for (size_t i = 0; i < a.words_.size(); ++i) {
    count += std::popcount(a.words_[i] | b.words_[i]);
  }
  return count;
}

std::vector<uint8_t> CoverageBitmap::ToBytes() const {
  std::vector<uint8_t> packed((side_ * side_ + 7) / 8, 0);
  for (int bit = 0; bit < side_ * side_; ++bit) {
    if ((words_[bit / 64] >> (bit % 64)) & 1) {
      packed[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  return packed;
}

}  // namespace walrus
