#include "src/codec/spng.h"

#include <algorithm>
#include <cstring>

#include "src/codec/bitstream.h"
#include "src/codec/huffman.h"
#include "src/util/macros.h"

namespace smol {

namespace {

constexpr uint32_t kMagic = 0x314E'5053;  // "SPN1" little-endian.

// --- Row filters (PNG semantics over byte streams) -------------------------

enum FilterType : uint8_t {
  kNone = 0,
  kSub = 1,
  kUp = 2,
  kAvg = 3,
  kPaeth = 4,
};

uint8_t PaethPredict(int a, int b, int c) {
  const int p = a + b - c;
  const int pa = std::abs(p - a);
  const int pb = std::abs(p - b);
  const int pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return static_cast<uint8_t>(a);
  if (pb <= pc) return static_cast<uint8_t>(b);
  return static_cast<uint8_t>(c);
}

// Applies filter \p type to one row; prev may be null for the first row.
void FilterRow(FilterType type, const uint8_t* row, const uint8_t* prev,
               int row_bytes, int bpp, uint8_t* out) {
  for (int i = 0; i < row_bytes; ++i) {
    const int left = i >= bpp ? row[i - bpp] : 0;
    const int up = prev != nullptr ? prev[i] : 0;
    const int ul = (prev != nullptr && i >= bpp) ? prev[i - bpp] : 0;
    int pred = 0;
    switch (type) {
      case kNone:
        pred = 0;
        break;
      case kSub:
        pred = left;
        break;
      case kUp:
        pred = up;
        break;
      case kAvg:
        pred = (left + up) / 2;
        break;
      case kPaeth:
        pred = PaethPredict(left, up, ul);
        break;
    }
    out[i] = static_cast<uint8_t>(row[i] - pred);
  }
}

// Inverts filter \p type in place over \p row.
void UnfilterRow(FilterType type, uint8_t* row, const uint8_t* prev,
                 int row_bytes, int bpp) {
  for (int i = 0; i < row_bytes; ++i) {
    const int left = i >= bpp ? row[i - bpp] : 0;
    const int up = prev != nullptr ? prev[i] : 0;
    const int ul = (prev != nullptr && i >= bpp) ? prev[i - bpp] : 0;
    int pred = 0;
    switch (type) {
      case kNone:
        pred = 0;
        break;
      case kSub:
        pred = left;
        break;
      case kUp:
        pred = up;
        break;
      case kAvg:
        pred = (left + up) / 2;
        break;
      case kPaeth:
        pred = PaethPredict(left, up, ul);
        break;
    }
    row[i] = static_cast<uint8_t>(row[i] + pred);
  }
}

uint64_t SumAbsResiduals(const uint8_t* filtered, int n) {
  uint64_t sum = 0;
  for (int i = 0; i < n; ++i) {
    const int v = filtered[i];
    sum += static_cast<uint64_t>(v < 128 ? v : 256 - v);
  }
  return sum;
}

// --- DEFLATE-style LZ token alphabet ----------------------------------------

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kEndOfBlock = 256;
constexpr int kNumLitLen = 286;
constexpr int kNumDist = 30;

const int kLenBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11,  13,
                          15, 17, 19, 23, 27, 31, 35, 43, 51,  59,
                          67, 83, 99, 115, 131, 163, 195, 227, 258};
const int kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                           2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
const int kDistBase[30] = {1,    2,    3,    4,    5,    7,     9,    13,
                           17,   25,   33,   49,   65,   97,    129,  193,
                           257,  385,  513,  769,  1025, 1537,  2049, 3073,
                           4097, 6145, 8193, 12289, 16385, 24577};
const int kDistExtra[30] = {0, 0, 0, 0, 1, 1, 2,  2,  3,  3,  4,  4,  5,  5, 6,
                            6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

int LengthToCode(int len) {
  for (int i = 28; i >= 0; --i) {
    if (len >= kLenBase[i]) return i;
  }
  return 0;
}

int DistToCode(int dist) {
  for (int i = 29; i >= 0; --i) {
    if (dist >= kDistBase[i]) return i;
  }
  return 0;
}

struct Token {
  bool is_match;
  uint8_t literal;
  int length;
  int distance;
};

// Greedy hash-chain LZ77 matcher.
std::vector<Token> LzCompress(const std::vector<uint8_t>& data,
                              int match_effort) {
  std::vector<Token> tokens;
  const int n = static_cast<int>(data.size());
  tokens.reserve(n / 4 + 16);
  constexpr int kHashBits = 15;
  constexpr int kHashSize = 1 << kHashBits;
  std::vector<int> head(kHashSize, -1);
  std::vector<int> chain(data.size(), -1);
  auto hash3 = [&](int pos) {
    const uint32_t h = static_cast<uint32_t>(data[pos]) |
                       (static_cast<uint32_t>(data[pos + 1]) << 8) |
                       (static_cast<uint32_t>(data[pos + 2]) << 16);
    return static_cast<int>((h * 2654435761u) >> (32 - kHashBits));
  };
  auto insert = [&](int pos) {
    const int h = hash3(pos);
    chain[pos] = head[h];
    head[h] = pos;
  };
  int pos = 0;
  while (pos < n) {
    int best_len = 0;
    int best_dist = 0;
    if (pos + kMinMatch <= n) {
      int cand = head[hash3(pos)];
      int probes = match_effort;
      while (cand >= 0 && probes-- > 0 && pos - cand <= kWindowSize) {
        const int limit = std::min(kMaxMatch, n - pos);
        int len = 0;
        while (len < limit && data[cand + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - cand;
          if (len >= limit) break;
        }
        cand = chain[cand];
      }
    }
    if (best_len >= kMinMatch) {
      tokens.push_back(Token{true, 0, best_len, best_dist});
      const int end = std::min(pos + best_len, n - kMinMatch + 1);
      for (int p = pos; p < end; ++p) insert(p);
      pos += best_len;
    } else {
      tokens.push_back(Token{false, data[pos], 0, 0});
      if (pos + kMinMatch <= n) insert(pos);
      ++pos;
    }
  }
  return tokens;
}

}  // namespace

Result<std::vector<uint8_t>> SpngEncode(const Image& image,
                                        const SpngEncodeOptions& options) {
  if (image.empty()) return Status::InvalidArgument("empty image");
  if (image.channels() != 1 && image.channels() != 3) {
    return Status::InvalidArgument("SPNG supports 1 or 3 channels");
  }
  const int w = image.width();
  const int h = image.height();
  const int c = image.channels();
  const int row_bytes = w * c;

  // Stage 1: per-row filtering with adaptive filter selection.
  std::vector<uint8_t> filtered;
  filtered.reserve(static_cast<size_t>(h) * (row_bytes + 1));
  std::vector<uint8_t> candidate(row_bytes);
  std::vector<uint8_t> best(row_bytes);
  for (int y = 0; y < h; ++y) {
    const uint8_t* row = image.row(y);
    const uint8_t* prev = y > 0 ? image.row(y - 1) : nullptr;
    uint64_t best_score = ~0ULL;
    FilterType best_type = kNone;
    for (FilterType type : {kNone, kSub, kUp, kAvg, kPaeth}) {
      FilterRow(type, row, prev, row_bytes, c, candidate.data());
      const uint64_t score = SumAbsResiduals(candidate.data(), row_bytes);
      if (score < best_score) {
        best_score = score;
        best_type = type;
        std::swap(best, candidate);
      }
    }
    filtered.push_back(static_cast<uint8_t>(best_type));
    filtered.insert(filtered.end(), best.begin(), best.end());
  }

  // Stage 2: LZ + Huffman.
  std::vector<Token> tokens = LzCompress(filtered, options.match_effort);

  std::vector<uint64_t> litlen_freq(kNumLitLen, 0);
  std::vector<uint64_t> dist_freq(kNumDist, 0);
  for (const Token& t : tokens) {
    if (t.is_match) {
      litlen_freq[257 + LengthToCode(t.length)]++;
      dist_freq[DistToCode(t.distance)]++;
    } else {
      litlen_freq[t.literal]++;
    }
  }
  litlen_freq[kEndOfBlock]++;
  // Distance table must be non-empty even for match-free streams.
  if (std::all_of(dist_freq.begin(), dist_freq.end(),
                  [](uint64_t f) { return f == 0; })) {
    dist_freq[0] = 1;
  }
  SMOL_ASSIGN_OR_RETURN(HuffmanTable litlen,
                        HuffmanTable::FromFrequencies(litlen_freq));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dist,
                        HuffmanTable::FromFrequencies(dist_freq));

  BitWriter out;
  out.WriteU32(kMagic);
  out.WriteU16(static_cast<uint16_t>(w));
  out.WriteU16(static_cast<uint16_t>(h));
  out.WriteByte(static_cast<uint8_t>(c));
  out.WriteU32(static_cast<uint32_t>(filtered.size()));
  litlen.Serialize(&out);
  dist.Serialize(&out);
  for (const Token& t : tokens) {
    if (t.is_match) {
      const int lcode = LengthToCode(t.length);
      litlen.EncodeSymbol(&out, 257 + lcode);
      if (kLenExtra[lcode] > 0) {
        out.WriteBits(static_cast<uint32_t>(t.length - kLenBase[lcode]),
                      kLenExtra[lcode]);
      }
      const int dcode = DistToCode(t.distance);
      dist.EncodeSymbol(&out, dcode);
      if (kDistExtra[dcode] > 0) {
        out.WriteBits(static_cast<uint32_t>(t.distance - kDistBase[dcode]),
                      kDistExtra[dcode]);
      }
    } else {
      litlen.EncodeSymbol(&out, t.literal);
    }
  }
  litlen.EncodeSymbol(&out, kEndOfBlock);
  return out.Finish();
}

Result<SpngHeader> SpngPeekHeader(const std::vector<uint8_t>& bytes) {
  BitReader reader(bytes.data(), bytes.size());
  SMOL_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return Status::Corruption("not an SPNG stream");
  SpngHeader hdr;
  SMOL_ASSIGN_OR_RETURN(uint16_t w, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t h, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint8_t c, reader.ReadByte());
  if (w == 0 || h == 0 || (c != 1 && c != 3)) {
    return Status::Corruption("bad SPNG header");
  }
  hdr.width = w;
  hdr.height = h;
  hdr.channels = c;
  return hdr;
}

Result<Image> SpngDecode(const std::vector<uint8_t>& bytes,
                         const SpngDecodeOptions& options,
                         SpngDecodeStats* stats) {
  BitReader reader(bytes.data(), bytes.size());
  SMOL_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) return Status::Corruption("not an SPNG stream");
  SMOL_ASSIGN_OR_RETURN(uint16_t w, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t h, reader.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint8_t c, reader.ReadByte());
  if (w == 0 || h == 0 || (c != 1 && c != 3)) {
    return Status::Corruption("bad SPNG header");
  }
  SMOL_ASSIGN_OR_RETURN(uint32_t inflated_size, reader.ReadU32());
  SMOL_ASSIGN_OR_RETURN(HuffmanTable litlen, HuffmanTable::Deserialize(&reader));
  SMOL_ASSIGN_OR_RETURN(HuffmanTable dist, HuffmanTable::Deserialize(&reader));

  const int row_bytes = w * c;
  const size_t full_size = static_cast<size_t>(h) * (row_bytes + 1);
  if (inflated_size != full_size) {
    return Status::Corruption("inflated size mismatch");
  }
  const int rows =
      options.max_rows > 0 ? std::min<int>(options.max_rows, h) : h;
  // Early stopping: inflate only the bytes covering the requested rows.
  const size_t needed = static_cast<size_t>(rows) * (row_bytes + 1);

  // Reserve no more than the remaining bits can inflate to: a token costs at
  // least 1 bit per literal and 2 bits (length + distance code) per match of
  // at most kMaxMatch bytes. A hostile header thus cannot make this reserve
  // gigabytes before a single token is read.
  const size_t remaining_bits = (bytes.size() - reader.byte_position()) * 8;
  std::vector<uint8_t> inflated;
  inflated.reserve(std::min(needed, remaining_bits * (kMaxMatch / 2)));
  while (inflated.size() < needed) {
    SMOL_ASSIGN_OR_RETURN(int sym, litlen.DecodeSymbol(&reader));
    if (stats != nullptr) stats->tokens_decoded++;
    if (sym == kEndOfBlock) break;
    if (sym < 256) {
      inflated.push_back(static_cast<uint8_t>(sym));
      continue;
    }
    const int lcode = sym - 257;
    if (lcode < 0 || lcode >= 29) return Status::Corruption("bad length code");
    int length = kLenBase[lcode];
    if (kLenExtra[lcode] > 0) {
      SMOL_ASSIGN_OR_RETURN(uint32_t extra, reader.ReadBits(kLenExtra[lcode]));
      length += static_cast<int>(extra);
    }
    SMOL_ASSIGN_OR_RETURN(int dcode, dist.DecodeSymbol(&reader));
    if (dcode < 0 || dcode >= kNumDist) {
      return Status::Corruption("bad distance code");
    }
    int distance = kDistBase[dcode];
    if (kDistExtra[dcode] > 0) {
      SMOL_ASSIGN_OR_RETURN(uint32_t extra,
                            reader.ReadBits(kDistExtra[dcode]));
      distance += static_cast<int>(extra);
    }
    if (distance <= 0 ||
        static_cast<size_t>(distance) > inflated.size()) {
      return Status::Corruption("distance exceeds window");
    }
    // Byte-by-byte copy: matches may overlap their own output (RLE case).
    size_t from = inflated.size() - static_cast<size_t>(distance);
    for (int i = 0; i < length; ++i) {
      inflated.push_back(inflated[from + i]);
    }
  }
  if (inflated.size() < needed) {
    return Status::Corruption("SPNG stream ended early");
  }
  if (stats != nullptr) {
    stats->bytes_inflated = static_cast<int64_t>(inflated.size());
  }

  // Unfilter the decoded rows.
  Image out(w, rows, c);
  std::vector<uint8_t> prev_row;
  for (int y = 0; y < rows; ++y) {
    const size_t base = static_cast<size_t>(y) * (row_bytes + 1);
    const uint8_t filter = inflated[base];
    if (filter > kPaeth) return Status::Corruption("bad filter type");
    uint8_t* dst = out.row(y);
    std::memcpy(dst, &inflated[base + 1], static_cast<size_t>(row_bytes));
    UnfilterRow(static_cast<FilterType>(filter), dst,
                y > 0 ? out.row(y - 1) : nullptr, row_bytes, c);
    if (stats != nullptr) stats->rows_unfiltered++;
  }
  (void)prev_row;
  return out;
}

}  // namespace smol
