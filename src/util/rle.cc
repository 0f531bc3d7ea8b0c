#include "util/rle.h"

#include "util/bit_util.h"

namespace jsontiles::rle {

std::vector<uint8_t> EncodeInt64(const int64_t* values, size_t count) {
  std::vector<uint8_t> out;
  out.reserve(count / 4 + 16);
  uint8_t buf[10];
  size_t i = 0;
  int64_t previous = 0;
  while (i < count) {
    size_t run = 1;
    while (i + run < count && values[i + run] == values[i]) run++;
    out.insert(out.end(), buf, buf + bit_util::EncodeVarint(buf, run));
    uint64_t delta = bit_util::ZigZagEncode(bit_util::WrapSub(values[i], previous));
    out.insert(out.end(), buf, buf + bit_util::EncodeVarint(buf, delta));
    previous = values[i];
    i += run;
  }
  return out;
}

bool DecodeInt64(const uint8_t* data, size_t size, std::vector<int64_t>* out) {
  out->clear();
  size_t pos = 0;
  int64_t previous = 0;
  while (pos < size) {
    uint64_t run = bit_util::DecodeVarint(data, &pos);
    if (pos > size || run == 0) return false;
    uint64_t delta = bit_util::DecodeVarint(data, &pos);
    if (pos > size) return false;
    int64_t value = bit_util::WrapAdd(previous, bit_util::ZigZagDecode(delta));
    out->insert(out->end(), run, value);
    previous = value;
  }
  return pos == size;
}

size_t EncodedSizeInt64(const int64_t* values, size_t count) {
  size_t bytes = 0;
  size_t i = 0;
  int64_t previous = 0;
  while (i < count) {
    size_t run = 1;
    while (i + run < count && values[i + run] == values[i]) run++;
    bytes += static_cast<size_t>(bit_util::VarintSize(run));
    bytes += static_cast<size_t>(
        bit_util::VarintSize(bit_util::ZigZagEncode(bit_util::WrapSub(values[i], previous))));
    previous = values[i];
    i += run;
  }
  return bytes;
}

size_t CountRuns(const int64_t* values, size_t count) {
  if (count == 0) return 0;
  size_t runs = 1;
  for (size_t i = 1; i < count; i++) {
    if (values[i] != values[i - 1]) runs++;
  }
  return runs;
}

}  // namespace jsontiles::rle
