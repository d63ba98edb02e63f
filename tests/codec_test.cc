// Unit, integration and property tests for src/codec: bitstream, Huffman
// (with wire-format parity against the sort-based reference), DCT, color,
// SJPG (roundtrip / ROI / scaled / every-variant digest), SPNG (lossless
// roundtrip / early stop), SV264 (roundtrip / random access / deblock
// toggle), formats, block-decoder parity against the symbol-at-a-time
// reference, and the truncation / bit-flip mutation sweep over every decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "src/codec/bitstream.h"
#include "src/codec/block_codec.h"
#include "src/codec/color.h"
#include "src/codec/dct.h"
#include "src/codec/format.h"
#include "src/codec/huffman.h"
#include "src/codec/image.h"
#include "src/codec/sjpg.h"
#include "src/codec/spng.h"
#include "src/codec/sv264.h"
#include "src/data/synth_image.h"
#include "src/util/cpu_features.h"
#include "tests/test_util.h"

namespace smol {
namespace {

using smol::testing::MakeNoiseImage;
using smol::testing::MakeTestImage;

// --- Bitstream ---------------------------------------------------------------

TEST(BitstreamTest, RoundtripBits) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0b0110, 4);
  w.WriteBits(0x1FFFF, 17);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadBits(3).value(), 0b101u);
  EXPECT_EQ(r.ReadBits(4).value(), 0b0110u);
  EXPECT_EQ(r.ReadBits(17).value(), 0x1FFFFu);
}

TEST(BitstreamTest, RoundtripMixedAlignedValues) {
  BitWriter w;
  w.WriteBits(0b11, 2);
  w.WriteU32(0xDEADBEEF);  // forces alignment
  w.WriteU16(0x1234);
  w.WriteByte(0x7F);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.ReadBits(2).value(), 0b11u);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU16().value(), 0x1234u);
  EXPECT_EQ(r.ReadByte().value(), 0x7Fu);
}

TEST(BitstreamTest, TruncationDetected) {
  BitWriter w;
  w.WriteBits(0b1, 1);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_TRUE(r.ReadBits(8).ok());
  EXPECT_FALSE(r.ReadBits(8).ok());  // past the single byte
}

TEST(BitstreamTest, SeekRepositions) {
  BitWriter w;
  for (int i = 0; i < 16; ++i) w.WriteByte(static_cast<uint8_t>(i));
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  ASSERT_OK(r.SeekToByte(10));
  EXPECT_EQ(r.ReadByte().value(), 10u);
  EXPECT_FALSE(r.SeekToByte(17).ok());
}

// --- Huffman ------------------------------------------------------------------

TEST(HuffmanTest, RoundtripSkewedDistribution) {
  std::vector<uint64_t> freq(64, 0);
  freq[0] = 1000;
  freq[1] = 500;
  freq[2] = 100;
  freq[3] = 10;
  freq[63] = 1;
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  // Frequent symbols get codes no longer than rare ones.
  EXPECT_LE(table.CodeLength(0), table.CodeLength(63));

  BitWriter w;
  const std::vector<int> message = {0, 0, 1, 2, 0, 63, 3, 1, 0};
  for (int sym : message) table.EncodeSymbol(&w, sym);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (int expected : message) {
    EXPECT_EQ(table.DecodeSymbol(&r).value(), expected);
  }
}

TEST(HuffmanTest, SerializationRoundtrip) {
  std::vector<uint64_t> freq(256, 0);
  Rng rng(3);
  for (auto& f : freq) f = rng.Uniform(100);
  freq[17] = 100000;  // force a very short code somewhere
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  BitWriter w;
  table.Serialize(&w);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  ASSERT_OK_AND_ASSIGN(HuffmanTable restored, HuffmanTable::Deserialize(&r));
  for (int sym = 0; sym < 256; ++sym) {
    EXPECT_EQ(table.CodeLength(sym), restored.CodeLength(sym)) << sym;
  }
}

TEST(HuffmanTest, SingleSymbolAlphabet) {
  std::vector<uint64_t> freq(16, 0);
  freq[5] = 42;
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  EXPECT_EQ(table.CodeLength(5), 1);
  BitWriter w;
  table.EncodeSymbol(&w, 5);
  table.EncodeSymbol(&w, 5);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  EXPECT_EQ(table.DecodeSymbol(&r).value(), 5);
  EXPECT_EQ(table.DecodeSymbol(&r).value(), 5);
}

TEST(HuffmanTest, AllZeroFrequenciesRejected) {
  std::vector<uint64_t> freq(8, 0);
  EXPECT_FALSE(HuffmanTable::FromFrequencies(freq).ok());
}

TEST(HuffmanTest, LengthLimitHolds) {
  // A geometric distribution would produce very deep trees unlimited.
  std::vector<uint64_t> freq(40, 0);
  uint64_t f = 1;
  for (int i = 0; i < 40; ++i) {
    freq[i] = f;
    if (f < (1ULL << 40)) f *= 2;
  }
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  for (int sym = 0; sym < 40; ++sym) {
    EXPECT_LE(table.CodeLength(sym), kMaxHuffmanBits);
    EXPECT_GE(table.CodeLength(sym), 1);
  }
}

// Property: roundtrip holds for random frequency tables (parameterized seeds).
class HuffmanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HuffmanPropertyTest, RandomTableRoundtrip) {
  Rng rng(GetParam());
  const int alphabet = 2 + static_cast<int>(rng.Uniform(300));
  std::vector<uint64_t> freq(alphabet, 0);
  for (auto& f : freq) {
    f = rng.Bernoulli(0.3) ? 0 : rng.Uniform(10000);
  }
  freq[0] = 1;  // ensure at least one nonzero
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  // Encode a random message of present symbols.
  std::vector<int> present;
  for (int i = 0; i < alphabet; ++i) {
    if (table.CodeLength(i) > 0) present.push_back(i);
  }
  ASSERT_FALSE(present.empty());
  std::vector<int> message;
  for (int i = 0; i < 200; ++i) {
    message.push_back(present[rng.Uniform(present.size())]);
  }
  BitWriter w;
  for (int s : message) table.EncodeSymbol(&w, s);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (int expected : message) {
    ASSERT_EQ(table.DecodeSymbol(&r).value(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

// HuffmanTable::Deserialize before the canonical-order fast path, kept as
// the reference: one ReadU16 per field, a code length per symbol (a
// repeated symbol keeps its last), then codes assigned over the symbols
// sorted by (length, symbol). Lookup is HuffmanTable::Lookup (the LUT probe,
// then the canonical scan) over the state built here.
struct ReferenceHuffmanTable {
  std::vector<uint8_t> lengths;
  std::vector<uint16_t> sorted_symbols;
  std::vector<uint32_t> lut;
  int32_t first_code[kMaxHuffmanBits + 1] = {0};
  int32_t first_index[kMaxHuffmanBits + 1] = {0};
  int32_t count[kMaxHuffmanBits + 1] = {0};

  static Result<ReferenceHuffmanTable> Deserialize(BitReader* reader) {
    SMOL_ASSIGN_OR_RETURN(uint16_t raw_size, reader->ReadU16());
    const int alphabet = raw_size == 0 ? 65536 : raw_size;
    int counts[kMaxHuffmanBits + 1] = {0};
    int total = 0;
    for (int len = 1; len <= kMaxHuffmanBits; ++len) {
      SMOL_ASSIGN_OR_RETURN(uint16_t c, reader->ReadU16());
      counts[len] = c;
      total += c;
    }
    if (total > alphabet) return Status::Corruption("too many symbols");
    ReferenceHuffmanTable t;
    t.lengths.assign(alphabet, 0);
    for (int len = 1; len <= kMaxHuffmanBits; ++len) {
      for (int k = 0; k < counts[len]; ++k) {
        SMOL_ASSIGN_OR_RETURN(uint16_t sym, reader->ReadU16());
        if (sym >= alphabet) return Status::Corruption("symbol out of range");
        t.lengths[sym] = static_cast<uint8_t>(len);
      }
    }
    for (uint8_t len : t.lengths) {
      if (len > 0) t.count[len]++;
    }
    uint64_t kraft = 0;
    for (int len = 1; len <= kMaxHuffmanBits; ++len) {
      kraft += static_cast<uint64_t>(t.count[len]) << (kMaxHuffmanBits - len);
    }
    if (kraft > (1ULL << kMaxHuffmanBits)) {
      return Status::Corruption("over-subscribed");
    }
    std::vector<int> order;
    for (int i = 0; i < alphabet; ++i) {
      if (t.lengths[i] > 0) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (t.lengths[a] != t.lengths[b]) return t.lengths[a] < t.lengths[b];
      return a < b;
    });
    std::vector<uint32_t> codes(alphabet, 0);
    uint32_t code = 0;
    int prev_len = 0;
    int index = 0;
    std::fill(std::begin(t.first_code), std::end(t.first_code), -1);
    std::fill(std::begin(t.first_index), std::end(t.first_index), 0);
    for (int sym : order) {
      const int len = t.lengths[sym];
      code <<= (len - prev_len);
      if (t.first_code[len] < 0) {
        t.first_code[len] = static_cast<int32_t>(code);
        t.first_index[len] = index;
      }
      codes[sym] = code;
      t.sorted_symbols.push_back(static_cast<uint16_t>(sym));
      ++code;
      ++index;
      prev_len = len;
    }
    t.lut.assign(1u << kHuffmanLutBits, 0);
    for (int sym : order) {
      const int len = t.lengths[sym];
      if (len > kHuffmanLutBits) break;
      const uint32_t base = codes[sym] << (kHuffmanLutBits - len);
      for (uint32_t i = 0; i < (1u << (kHuffmanLutBits - len)); ++i) {
        t.lut[base + i] = (static_cast<uint32_t>(sym) << 8) |
                          static_cast<uint32_t>(len);
      }
    }
    return t;
  }

  uint32_t Lookup(uint32_t bits) const {
    const uint32_t entry = lut[bits >> (kMaxHuffmanBits - kHuffmanLutBits)];
    if (entry != 0) return entry;
    for (int len = kHuffmanLutBits + 1; len <= kMaxHuffmanBits; ++len) {
      const int32_t code =
          static_cast<int32_t>(bits >> (kMaxHuffmanBits - len));
      if (first_code[len] >= 0 && code >= first_code[len] &&
          code < first_code[len] + count[len]) {
        const uint32_t sym =
            sorted_symbols[first_index[len] + (code - first_code[len])];
        return (sym << 8) | static_cast<uint32_t>(len);
      }
    }
    return 0;
  }

  // The table in HuffmanTable::Serialize's wire format.
  std::vector<uint8_t> Serialize() const {
    BitWriter w;
    w.WriteU16(
        static_cast<uint16_t>(lengths.size() == 65536 ? 0 : lengths.size()));
    for (int len = 1; len <= kMaxHuffmanBits; ++len) {
      w.WriteU16(static_cast<uint16_t>(count[len]));
    }
    for (uint16_t sym : sorted_symbols) w.WriteU16(sym);
    return w.Finish();
  }
};

// A wire-format table as fields: alphabet size (0 = 65536), per-length
// counts and the symbol list.
struct WireTable {
  uint16_t raw_size = 0;
  uint16_t counts[kMaxHuffmanBits + 1] = {0};
  std::vector<uint16_t> symbols;

  std::vector<uint8_t> Bytes() const {
    BitWriter w;
    w.WriteU16(raw_size);
    for (int len = 1; len <= kMaxHuffmanBits; ++len) w.WriteU16(counts[len]);
    for (uint16_t sym : symbols) w.WriteU16(sym);
    return w.Finish();
  }

  // Ascending within each length and every symbol once: Serialize's order.
  bool Canonical() const {
    std::vector<bool> seen(65536, false);
    size_t i = 0;
    for (int len = 1; len <= kMaxHuffmanBits; ++len) {
      for (int k = 0; k < counts[len] && i < symbols.size(); ++k, ++i) {
        if (seen[symbols[i]] || (k > 0 && symbols[i] <= symbols[i - 1])) {
          return false;
        }
        seen[symbols[i]] = true;
      }
    }
    return true;
  }
};

// A seeded table as Serialize writes it for a random code (skewed
// frequencies reach codes longer than the LUT), then, most of the time, bent
// into a list Serialize never writes.
WireTable RandomWireTable(Rng* rng) {
  const int alphabet =
      rng->Bernoulli(0.03) ? 65536 : 1 + static_cast<int>(rng->Uniform(300));
  std::vector<uint64_t> freq(alphabet, 0);
  const int used = 1 + static_cast<int>(rng->Uniform(std::min(alphabet, 260)));
  for (int k = 0; k < used; ++k) {
    freq[rng->Uniform(alphabet)] =
        1 + (rng->Bernoulli(0.5) ? rng->Uniform(1u << rng->Uniform(30))
                                 : rng->Uniform(50));
  }
  const HuffmanTable table = HuffmanTable::FromFrequencies(freq).MoveValue();
  BitWriter w;
  table.Serialize(&w);
  const std::vector<uint8_t> bytes = w.Finish();
  WireTable wire;
  wire.raw_size = LoadU16Le(bytes.data());
  int total = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    wire.counts[len] = LoadU16Le(bytes.data() + 2 * len);
    total += wire.counts[len];
  }
  for (int i = 0; i < total; ++i) {
    wire.symbols.push_back(LoadU16Le(bytes.data() + 2 * (17 + i)));
  }
  const auto pick = [&] { return rng->Uniform(wire.symbols.size()); };
  switch (rng->Uniform(9)) {
    case 0:  // unchanged
      break;
    case 1:  // unsorted: two symbols trade places
      std::swap(wire.symbols[pick()], wire.symbols[pick()]);
      break;
    case 2:  // a repeated symbol, in its own length or another
      wire.symbols[pick()] = wire.symbols[pick()];
      break;
    case 3:  // a symbol out of range
      wire.symbols[pick()] = static_cast<uint16_t>(
          std::min<uint64_t>(65535, alphabet + rng->Uniform(3)));
      break;
    case 4: {  // one more code, at a random length: often over-subscribed
      const int len = 1 + static_cast<int>(rng->Uniform(kMaxHuffmanBits));
      int at = 0;
      for (int l = 1; l <= len; ++l) at += wire.counts[l];
      wire.counts[len]++;
      wire.symbols.insert(wire.symbols.begin() + at,
                          static_cast<uint16_t>(rng->Uniform(alphabet)));
      break;
    }
    case 5: {  // a dropped code: canonical but incomplete
      int len = 1;
      int at = static_cast<int>(pick());
      for (int seen = 0; seen + wire.counts[len] <= at; ++len) {
        seen += wire.counts[len];
      }
      wire.counts[len]--;
      wire.symbols.erase(wire.symbols.begin() + at);
      break;
    }
    case 6:  // more symbols than the alphabet holds
      wire.counts[1 + rng->Uniform(kMaxHuffmanBits)] += static_cast<uint16_t>(
          std::min<int>(65535 - total, alphabet + 1));
      break;
    case 7:  // random counts over random symbols
      for (int len = 1; len <= kMaxHuffmanBits; ++len) {
        wire.counts[len] = static_cast<uint16_t>(
            rng->Bernoulli(0.4) ? rng->Uniform(1u << (len < 9 ? len : 9)) : 0);
      }
      wire.symbols.clear();
      for (int len = 1; len <= kMaxHuffmanBits; ++len) {
        for (int k = 0; k < wire.counts[len]; ++k) {
          wire.symbols.push_back(static_cast<uint16_t>(rng->Uniform(alphabet)));
        }
      }
      break;
    default:  // reversed within every length
      for (int len = 1, at = 0; len <= kMaxHuffmanBits; ++len) {
        std::reverse(wire.symbols.begin() + at,
                     wire.symbols.begin() + at + wire.counts[len]);
        at += wire.counts[len];
      }
      break;
  }
  return wire;
}

// Status code, every Lookup over all 16-bit windows, the code lengths, the
// bytes consumed and the re-serialized table all match the reference, on
// canonical lists (the fast path) and on every other kind (the rebuild),
// whole and truncated.
TEST(HuffmanTest, DeserializeMatchesReference) {
  Rng rng(0x4d0f);
  int ok_canonical = 0, ok_other = 0, failed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const WireTable wire = RandomWireTable(&rng);
    std::vector<uint8_t> bytes = wire.Bytes();
    if (rng.Bernoulli(0.1)) bytes.resize(rng.Uniform(bytes.size()));
    bytes.push_back(0xA5);  // the next field in a stream
    BitReader ref_reader(bytes.data(), bytes.size());
    BitReader reader(bytes.data(), bytes.size());
    auto want = ReferenceHuffmanTable::Deserialize(&ref_reader);
    auto got = HuffmanTable::Deserialize(&reader);
    ASSERT_EQ(want.status().code(), got.status().code())
        << "trial " << trial << ": " << want.status().ToString() << " vs "
        << got.status().ToString();
    if (!want.ok()) {
      ++failed;
      continue;
    }
    ++(wire.Canonical() ? ok_canonical : ok_other);
    const ReferenceHuffmanTable& ref = want.value();
    const HuffmanTable& table = got.value();
    ASSERT_EQ(ref_reader.byte_position(), reader.byte_position())
        << "trial " << trial;
    uint32_t bad = 0x10000;
    for (uint32_t bits = 0; bits < 0x10000 && bad == 0x10000; ++bits) {
      if (ref.Lookup(bits) != table.Lookup(bits)) bad = bits;
    }
    ASSERT_EQ(bad, 0x10000u) << "trial " << trial << ": Lookup(" << bad
                             << ") " << ref.Lookup(bad) << " vs "
                             << table.Lookup(bad);
    ASSERT_EQ(table.alphabet_size(), static_cast<int>(ref.lengths.size()));
    for (int sym = 0; sym < table.alphabet_size(); ++sym) {
      ASSERT_EQ(table.CodeLength(sym), ref.lengths[sym]) << "trial " << trial;
    }
    BitWriter w;
    table.Serialize(&w);
    ASSERT_EQ(w.Finish(), ref.Serialize()) << "trial " << trial;
  }
  EXPECT_GT(ok_canonical, 50);
  EXPECT_GT(ok_other, 50);
  EXPECT_GT(failed, 50);
}

// --- DCT -----------------------------------------------------------------------

TEST(DctTest, RoundtripIsNearLossless) {
  Rng rng(5);
  int16_t in[64], out[64];
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<int16_t>(rng.UniformInt(-128, 127));
  }
  float coeffs[64];
  ForwardDct8x8(in, coeffs);
  InverseDct8x8(coeffs, out);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(in[i], out[i], 1) << "index " << i;
  }
}

TEST(DctTest, FlatBlockHasOnlyDc) {
  int16_t in[64];
  for (int i = 0; i < 64; ++i) in[i] = 50;
  float coeffs[64];
  ForwardDct8x8(in, coeffs);
  EXPECT_NEAR(coeffs[0], 50.0f * 8.0f, 0.01f);  // DC = mean * 8
  for (int i = 1; i < 64; ++i) {
    EXPECT_NEAR(coeffs[i], 0.0f, 0.01f);
  }
}

TEST(DctTest, ParsevalEnergyPreserved) {
  Rng rng(6);
  int16_t in[64];
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<int16_t>(rng.UniformInt(-100, 100));
  }
  float coeffs[64];
  ForwardDct8x8(in, coeffs);
  double e_space = 0, e_freq = 0;
  for (int i = 0; i < 64; ++i) {
    e_space += static_cast<double>(in[i]) * in[i];
    e_freq += static_cast<double>(coeffs[i]) * coeffs[i];
  }
  EXPECT_NEAR(e_freq / e_space, 1.0, 0.01);
}

TEST(DctTest, QualityScalesQuantTables) {
  const QuantTable q10 = QuantTable::Luma(10);
  const QuantTable q75 = QuantTable::Luma(75);
  const QuantTable q100 = QuantTable::Luma(100);
  // Lower quality => coarser quantization.
  uint64_t s10 = 0, s75 = 0, s100 = 0;
  for (int i = 0; i < 64; ++i) {
    s10 += q10.q[i];
    s75 += q75.q[i];
    s100 += q100.q[i];
  }
  EXPECT_GT(s10, s75);
  EXPECT_GT(s75, s100);
  for (int i = 0; i < 64; ++i) EXPECT_GE(q100.q[i], 1);
}

TEST(DctTest, ZigZagIsAPermutation) {
  std::vector<bool> seen(64, false);
  for (int i = 0; i < 64; ++i) {
    ASSERT_GE(kZigZag[i], 0);
    ASSERT_LT(kZigZag[i], 64);
    EXPECT_FALSE(seen[kZigZag[i]]);
    seen[kZigZag[i]] = true;
  }
  EXPECT_EQ(kZigZag[0], 0);   // DC first
  EXPECT_EQ(kZigZag[63], 63); // highest frequency last
}

TEST(DctTest, QuantizeDequantizeRoundtrip) {
  const QuantTable qt = QuantTable::Luma(90);
  float in[64];
  Rng rng(8);
  for (int i = 0; i < 64; ++i) {
    in[i] = static_cast<float>(rng.UniformInt(-500, 500));
  }
  int16_t q[64];
  Quantize(in, qt, q);
  float out[64];
  Dequantize(q, qt, out);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(in[i], out[i], qt.q[i] / 2.0 + 0.51);
  }
}

// ReconstructBlockScaled as it was before it read only the n x n corner:
// dequantize all 64 coefficients, then InverseDctScaled.
void ReferenceReconstructBlockScaled(const DecodedBlock& block,
                                     const QuantTable& qt, int n,
                                     int16_t* out) {
  float dct[64];
  Dequantize(block.coef, qt, dct);
  InverseDctScaled(dct, n, out);
}

TEST(DctTest, ScaledReconstructMatchesFullDequantizeReference) {
  Rng rng(9);
  for (int quality : {5, 50, 85, 100}) {
    for (const QuantTable& qt :
         {QuantTable::Luma(quality), QuantTable::Chroma(quality)}) {
      for (int trial = 0; trial < 200; ++trial) {
        // Dense to sparse blocks; magnitudes up to the 11-bit AC range so
        // some blocks clamp at the IDCT's [-256, 255].
        const double zero_share = rng.UniformDouble();
        const int64_t magnitude = int64_t{1} << rng.UniformInt(1, 11);
        DecodedBlock block;
        for (int16_t& c : block.coef) {
          c = rng.Bernoulli(zero_share) ? 0
                                        : static_cast<int16_t>(rng.UniformInt(
                                              -magnitude, magnitude - 1));
        }
        for (int n : {1, 2, 4}) {
          int16_t want[16];
          int16_t got[16];
          ReferenceReconstructBlockScaled(block, qt, n, want);
          ReconstructBlockScaled(block, qt, n, got);
          for (int i = 0; i < n * n; ++i) {
            ASSERT_EQ(want[i], got[i]) << "quality " << quality << " trial "
                                       << trial << " n " << n << " i " << i;
          }
        }
      }
    }
  }
}

// --- Color -----------------------------------------------------------------------

TEST(ColorTest, ScalarRoundtripIsClose) {
  Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t r0 = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t g0 = static_cast<uint8_t>(rng.Uniform(256));
    const uint8_t b0 = static_cast<uint8_t>(rng.Uniform(256));
    uint8_t y, cb, cr, r1, g1, b1;
    RgbToYcc(r0, g0, b0, &y, &cb, &cr);
    YccToRgb(y, cb, cr, &r1, &g1, &b1);
    EXPECT_NEAR(r0, r1, 4);
    EXPECT_NEAR(g0, g1, 4);
    EXPECT_NEAR(b0, b1, 4);
  }
}

TEST(ColorTest, GrayMapsToNeutralChroma) {
  uint8_t y, cb, cr;
  RgbToYcc(128, 128, 128, &y, &cb, &cr);
  EXPECT_NEAR(y, 128, 1);
  EXPECT_NEAR(cb, 128, 1);
  EXPECT_NEAR(cr, 128, 1);
}

TEST(ColorTest, PlanarRoundtripOnSmoothImage) {
  const Image img = MakeTestImage(64, 48, 3);
  Ycbcr420 ycc = RgbToYcbcr420(img);
  EXPECT_EQ(ycc.chroma_width(), 32);
  EXPECT_EQ(ycc.chroma_height(), 24);
  Image back = Ycbcr420ToRgb(ycc);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, back));
  EXPECT_GT(psnr, 30.0);  // 4:2:0 subsampling loses some chroma detail
}

TEST(ColorTest, OddDimensionsHandled) {
  const Image img = MakeTestImage(33, 17, 3);
  Ycbcr420 ycc = RgbToYcbcr420(img);
  EXPECT_EQ(ycc.chroma_width(), 17);
  EXPECT_EQ(ycc.chroma_height(), 9);
  Image back = Ycbcr420ToRgb(ycc);
  EXPECT_EQ(back.width(), 33);
  EXPECT_EQ(back.height(), 17);
}

// --- Image helpers ------------------------------------------------------------------

TEST(ImageTest, CropExtractsExactRegion) {
  Image img(10, 10, 1);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      img.at(x, y, 0) = static_cast<uint8_t>(y * 10 + x);
    }
  }
  ASSERT_OK_AND_ASSIGN(Image crop, CropImage(img, Roi{2, 3, 4, 5}));
  EXPECT_EQ(crop.width(), 4);
  EXPECT_EQ(crop.height(), 5);
  EXPECT_EQ(crop.at(0, 0, 0), 32);
  EXPECT_EQ(crop.at(3, 4, 0), 75);
}

TEST(ImageTest, CropRejectsOutOfBounds) {
  Image img(10, 10, 1);
  EXPECT_FALSE(CropImage(img, Roi{8, 8, 4, 4}).ok());
  EXPECT_FALSE(CropImage(img, Roi{-1, 0, 4, 4}).ok());
  EXPECT_FALSE(CropImage(img, Roi{0, 0, 0, 0}).ok());
}

// roi.x + roi.width (or y + height) past INT_MAX must not wrap into range.
TEST(ImageTest, CropRejectsRoiWhoseEndOverflows) {
  const Image img(10, 10, 1);
  constexpr int kFar = std::numeric_limits<int>::max() - 7;
  EXPECT_EQ(CropImage(img, Roi{kFar, 0, 16, 16}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(CropImage(img, Roi{0, kFar, 16, 16}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ImageTest, CenterCropCentersAndClamps) {
  Roi roi = Roi::CenterCrop(100, 60, 40, 40);
  EXPECT_EQ(roi, (Roi{30, 10, 40, 40}));
  Roi clamped = Roi::CenterCrop(30, 30, 100, 100);
  EXPECT_EQ(clamped, (Roi{0, 0, 30, 30}));
}

TEST(ImageTest, PsnrIdenticalIsHuge) {
  const Image img = MakeTestImage(32, 32, 3);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, img));
  EXPECT_GT(psnr, 1e8);
}

TEST(ImageTest, PsnrShapeMismatchRejected) {
  EXPECT_FALSE(Psnr(Image(4, 4, 1), Image(4, 4, 3)).ok());
  EXPECT_FALSE(MeanAbsDiff(Image(4, 4, 1), Image(5, 4, 1)).ok());
}

// --- SJPG ------------------------------------------------------------------------------

TEST(SjpgTest, RoundtripHighQualityIsClose) {
  const Image img = MakeTestImage(128, 96, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 95}));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  EXPECT_EQ(decoded.width(), img.width());
  EXPECT_EQ(decoded.height(), img.height());
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, decoded));
  EXPECT_GT(psnr, 30.0);
}

TEST(SjpgTest, QualityControlsRateAndDistortion) {
  const Image img = MakeTestImage(128, 128, 3);
  ASSERT_OK_AND_ASSIGN(auto q95, SjpgEncode(img, {.quality = 95}));
  ASSERT_OK_AND_ASSIGN(auto q75, SjpgEncode(img, {.quality = 75}));
  ASSERT_OK_AND_ASSIGN(auto q30, SjpgEncode(img, {.quality = 30}));
  EXPECT_GT(q95.size(), q75.size());
  EXPECT_GT(q75.size(), q30.size());
  ASSERT_OK_AND_ASSIGN(Image d95, SjpgDecode(q95));
  ASSERT_OK_AND_ASSIGN(Image d30, SjpgDecode(q30));
  ASSERT_OK_AND_ASSIGN(double psnr95, Psnr(img, d95));
  ASSERT_OK_AND_ASSIGN(double psnr30, Psnr(img, d30));
  EXPECT_GT(psnr95, psnr30);
}

TEST(SjpgTest, GrayscaleRoundtrip) {
  const Image img = MakeTestImage(64, 64, 1);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 90}));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  EXPECT_EQ(decoded.channels(), 1);
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, decoded));
  EXPECT_GT(psnr, 30.0);
}

TEST(SjpgTest, NonMultipleOf16Dimensions) {
  const Image img = MakeTestImage(77, 53, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  EXPECT_EQ(decoded.width(), 77);
  EXPECT_EQ(decoded.height(), 53);
}

TEST(SjpgTest, PeekHeaderWithoutDecode) {
  const Image img = MakeTestImage(80, 48, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = 61}));
  ASSERT_OK_AND_ASSIGN(SjpgHeader hdr, SjpgPeekHeader(bytes));
  EXPECT_EQ(hdr.width, 80);
  EXPECT_EQ(hdr.height, 48);
  EXPECT_EQ(hdr.channels, 3);
  EXPECT_EQ(hdr.quality, 61);
  EXPECT_EQ(hdr.mcu_size, 16);
  EXPECT_EQ(hdr.mcu_cols, 5);
  EXPECT_EQ(hdr.mcu_rows, 3);
}

// The key §6.4 property: the ROI decode returns exactly the same pixels as
// cropping the full decode.
TEST(SjpgTest, RoiDecodeMatchesFullDecodeCrop) {
  const Image img = MakeTestImage(160, 128, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  ASSERT_OK_AND_ASSIGN(Image full, SjpgDecode(bytes));
  // The first rows of the image, full width or not, are an ROI like any
  // other: the decoder has no separate early-stop path.
  for (const Roi roi : {Roi{32, 32, 64, 64}, Roi{0, 0, 16, 16},
                        Roi{100, 50, 60, 78}, Roi{5, 7, 33, 41},
                        Roi::CenterCrop(160, 128, 96, 96), Roi{0, 0, 96, 40},
                        Roi{0, 0, 160, 40}}) {
    SjpgDecodeOptions opts;
    opts.roi = roi;
    ASSERT_OK_AND_ASSIGN(Image partial, SjpgDecode(bytes, opts));
    ASSERT_OK_AND_ASSIGN(Image reference, CropImage(full, roi));
    EXPECT_EQ(partial, reference)
        << "ROI {" << roi.x << "," << roi.y << "," << roi.width << ","
        << roi.height << "}";
  }
}

TEST(SjpgTest, RoiDecodeSkipsWork) {
  const Image img = MakeTestImage(256, 256, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  SjpgDecodeStats full_stats;
  ASSERT_OK(SjpgDecode(bytes, {}, &full_stats).status());
  SjpgDecodeOptions opts;
  opts.roi = Roi::CenterCrop(256, 256, 64, 64);
  SjpgDecodeStats roi_stats;
  ASSERT_OK(SjpgDecode(bytes, opts, &roi_stats).status());
  // Entropy decoding must cover fewer rows; IDCT must cover far fewer blocks.
  EXPECT_LT(roi_stats.mcu_rows_decoded, full_stats.mcu_rows_decoded);
  EXPECT_LT(roi_stats.entropy_blocks, full_stats.entropy_blocks);
  EXPECT_LT(roi_stats.idct_blocks * 3, full_stats.idct_blocks);
}

TEST(SjpgTest, RoiOutOfBoundsRejected) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  SjpgDecodeOptions opts;
  opts.roi = Roi{32, 32, 64, 64};
  EXPECT_FALSE(SjpgDecode(bytes, opts).ok());
}

// The ROI comes from the request: an end past INT_MAX is OutOfRange, not a
// wrapped bounds check and a decode far outside the planes.
TEST(SjpgTest, RoiWhoseEndOverflowsRejected) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  constexpr int kFar = std::numeric_limits<int>::max() - 7;
  SjpgDecodeOptions opts;
  opts.roi = Roi{kFar, 0, 16, 16};
  EXPECT_EQ(SjpgDecode(bytes, opts).status().code(), StatusCode::kOutOfRange);
  opts.roi = Roi{0, kFar, 16, 16};
  EXPECT_EQ(SjpgDecode(bytes, opts).status().code(), StatusCode::kOutOfRange);
}

// Pins every SJPG decode variant byte for byte: each decode's status,
// dimensions, pixels and work counters fold into one FNV-1a digest, across
// benchmark-style q85 inputs (two seeds; 128x128 and 97x61 colour, 61x97
// gray), denominators 1/2/4/8 and four ROIs (full, unaligned centre, the
// first half of the rows, the bottom-right pixel). ROI with a denominator
// above 1 is rejected, and the digest pins that too. The inputs are encoded
// under a scalar cap (the AVX2 forward DCT fuses multiply-adds), so the
// streams are the same on every host; then every SIMD level the host has
// must give the same digest. The constant was recorded from the decoder as
// it stood before its full, ROI and scaled paths shared one band loop: a
// change that moves any byte or counter of any variant fails here.
TEST(SjpgTest, EveryDecodeVariantMatchesParentDigest) {
  struct Input {
    int w, h, channels;
    std::vector<uint8_t> bytes;
  };
  std::vector<Input> inputs;
  {
    ScopedSimdLevelCap cap(SimdLevel::kScalar);
    for (const uint64_t seed : {uint64_t{7}, uint64_t{902}}) {
      for (Input in : {Input{128, 128, 3, {}}, Input{97, 61, 3, {}},
                       Input{61, 97, 1, {}}}) {
        SynthImageOptions gen;
        gen.width = in.w;
        gen.height = in.h;
        gen.num_classes = 4;
        gen.seed = seed;
        const Image rgb = SynthImageGenerator(gen).Generate(1, seed);
        Image img(in.w, in.h, in.channels);
        for (size_t i = 0; i < img.size_bytes(); ++i) {
          img.data()[i] = rgb.data()[in.channels == 3 ? i : 3 * i + 1];
        }
        ASSERT_OK_AND_ASSIGN(in.bytes, SjpgEncode(img, {.quality = 85}));
        inputs.push_back(std::move(in));
      }
    }
  }
  constexpr uint64_t kExpected = 0x6d80a57fdfbcd266ULL;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSSE4, SimdLevel::kAVX2}) {
    ScopedSimdLevelCap cap(level);
    if (ActiveSimdLevel() != level) continue;  // the host lacks this level
    uint64_t digest = 0xcbf29ce484222325ULL;
    auto fold_bytes = [&digest](const uint8_t* p, size_t n) {
      for (size_t i = 0; i < n; ++i) {
        digest = (digest ^ p[i]) * 0x100000001b3ULL;
      }
    };
    auto fold = [&fold_bytes](int64_t v) {
      uint8_t le[8];
      for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
      fold_bytes(le, sizeof(le));
    };
    Image out;  // reused across decodes, as a serving worker reuses its image
    for (const Input& in : inputs) {
      const Roi rois[] = {
          Roi{},
          Roi{in.w / 4 + 3, in.h / 4 + 5, in.w / 2, in.h / 3},
          Roi{0, 0, in.w, in.h / 2},
          Roi{in.w - 1, in.h - 1, 1, 1},
      };
      for (const int denom : {1, 2, 4, 8}) {
        for (const Roi& roi : rois) {
          SjpgDecodeOptions opts;
          opts.scale_denom = denom;
          opts.roi = roi;
          SjpgDecodeStats stats;
          const Status status = SjpgDecodeInto(in.bytes, opts, &out, &stats);
          fold(static_cast<int>(status.code()));
          fold(stats.entropy_blocks);
          fold(stats.idct_blocks);
          fold(stats.mcu_rows_decoded);
          if (!status.ok()) continue;
          fold(out.width());
          fold(out.height());
          fold(out.channels());
          fold_bytes(out.data(), out.size_bytes());
        }
      }
    }
    EXPECT_EQ(digest, kExpected)
        << SimdLevelName(level) << " digest 0x" << std::hex << digest;
  }
}

TEST(SjpgTest, CorruptStreamsRejectedNotCrashing) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img));
  // Magic corruption.
  auto bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(SjpgDecode(bad).ok());
  // Truncations at various points must error, not crash.
  for (size_t keep : {size_t{5}, bytes.size() / 4, bytes.size() / 2,
                      bytes.size() - 3}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + keep);
    EXPECT_FALSE(SjpgDecode(truncated).ok()) << "kept " << keep;
  }
}

TEST(SjpgTest, EmptyAndBadInputsRejected) {
  EXPECT_FALSE(SjpgEncode(Image()).ok());
  EXPECT_FALSE(SjpgEncode(Image(4, 4, 2)).ok());
  EXPECT_FALSE(SjpgDecode({}).ok());
}

// A header claiming 65535x65535 with an empty entropy section: every block
// needs at least 2 bits, so it is rejected before ~6.4 GB of planes are
// allocated.
TEST(SjpgTest, ImplausibleSizeRejectedBeforeAllocating) {
  std::vector<uint64_t> freq(256, 1);
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  BitWriter w;
  w.WriteU32(0x3150'4A53);  // "SJP1"
  w.WriteU16(65535);
  w.WriteU16(65535);
  w.WriteByte(3);
  w.WriteByte(85);
  for (int i = 0; i < 128; ++i) w.WriteU16(1);  // luma + chroma quant
  for (int t = 0; t < 4; ++t) table.Serialize(&w);
  const int mcu_rows = 4096;
  w.WriteU16(mcu_rows);
  for (int i = 0; i <= mcu_rows; ++i) w.WriteU32(0);  // empty entropy data
  const std::vector<uint8_t> bytes = w.Finish();
  EXPECT_EQ(SjpgPeekHeader(bytes).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(SjpgDecode(bytes).status().code(), StatusCode::kCorruption);
  SjpgDecodeOptions scaled;
  scaled.scale_denom = 8;
  EXPECT_EQ(SjpgDecode(bytes, scaled).status().code(),
            StatusCode::kCorruption);
}

// Property sweep: roundtrip PSNR stays reasonable across sizes and qualities.
struct SjpgSweepParam {
  int width;
  int height;
  int quality;
};

class SjpgSweepTest : public ::testing::TestWithParam<SjpgSweepParam> {};

TEST_P(SjpgSweepTest, RoundtripWithinTolerance) {
  const auto p = GetParam();
  const Image img = MakeTestImage(p.width, p.height, 3,
                                  static_cast<uint64_t>(p.width * 31 + p.height));
  ASSERT_OK_AND_ASSIGN(auto bytes, SjpgEncode(img, {.quality = p.quality}));
  ASSERT_OK_AND_ASSIGN(Image decoded, SjpgDecode(bytes));
  ASSERT_OK_AND_ASSIGN(double psnr, Psnr(img, decoded));
  // Even q=30 should stay above ~22 dB on smooth content.
  EXPECT_GT(psnr, p.quality >= 75 ? 28.0 : 22.0);
  // Compression must actually compress smooth content.
  EXPECT_LT(bytes.size(), img.size_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SjpgSweepTest,
    ::testing::Values(SjpgSweepParam{16, 16, 75}, SjpgSweepParam{17, 19, 75},
                      SjpgSweepParam{64, 64, 30}, SjpgSweepParam{64, 64, 95},
                      SjpgSweepParam{161, 161, 75},
                      SjpgSweepParam{224, 224, 95},
                      SjpgSweepParam{320, 240, 50}));

// --- SPNG -------------------------------------------------------------------------------

TEST(SpngTest, RoundtripIsLossless) {
  for (int channels : {1, 3}) {
    const Image img = MakeTestImage(100, 80, channels);
    ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
    ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
    EXPECT_EQ(decoded, img) << "channels=" << channels;
  }
}

TEST(SpngTest, NoiseRoundtripIsLossless) {
  const Image img = MakeNoiseImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
  EXPECT_EQ(decoded, img);
}

TEST(SpngTest, SmoothImagesCompress) {
  const Image img = MakeTestImage(128, 128, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  EXPECT_LT(bytes.size(), img.size_bytes() / 2);
}

TEST(SpngTest, EarlyStopMatchesPrefix) {
  const Image img = MakeTestImage(90, 70, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  SpngDecodeOptions opts;
  opts.max_rows = 25;
  SpngDecodeStats stats;
  ASSERT_OK_AND_ASSIGN(Image partial, SpngDecode(bytes, opts, &stats));
  EXPECT_EQ(partial.height(), 25);
  ASSERT_OK_AND_ASSIGN(Image prefix, CropImage(img, Roi{0, 0, 90, 25}));
  EXPECT_EQ(partial, prefix);
  EXPECT_EQ(stats.rows_unfiltered, 25);
  // Early stop must not inflate the whole stream.
  SpngDecodeStats full_stats;
  ASSERT_OK(SpngDecode(bytes, {}, &full_stats).status());
  EXPECT_LT(stats.bytes_inflated, full_stats.bytes_inflated);
}

TEST(SpngTest, PeekHeader) {
  const Image img = MakeTestImage(55, 44, 1);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(SpngHeader hdr, SpngPeekHeader(bytes));
  EXPECT_EQ(hdr.width, 55);
  EXPECT_EQ(hdr.height, 44);
  EXPECT_EQ(hdr.channels, 1);
}

TEST(SpngTest, CorruptStreamsRejected) {
  const Image img = MakeTestImage(64, 64, 3);
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  auto bad = bytes;
  bad[1] ^= 0x55;
  EXPECT_FALSE(SpngDecode(bad).ok());
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 3);
  EXPECT_FALSE(SpngDecode(truncated).ok());
}

// An 89-byte stream whose header promises 65535x65534 gray pixels (the
// largest inflated size its u32 field admits, ~4.29 GB): the decoder must
// not reserve that up front, and fails on the missing tokens.
TEST(SpngTest, HugeHeaderOnTinyStreamRejected) {
  std::vector<uint64_t> freq(2, 1);
  ASSERT_OK_AND_ASSIGN(HuffmanTable table, HuffmanTable::FromFrequencies(freq));
  BitWriter w;
  w.WriteU32(0x314E'5053);  // "SPN1"
  w.WriteU16(65535);
  w.WriteU16(65534);
  w.WriteByte(1);
  w.WriteU32(65534u * (65535u + 1u));
  table.Serialize(&w);  // literal/length codes
  table.Serialize(&w);  // distance codes; no tokens follow
  const std::vector<uint8_t> bytes = w.Finish();
  EXPECT_EQ(bytes.size(), 89u);
  EXPECT_EQ(SpngDecode(bytes).status().code(), StatusCode::kCorruption);
}

class SpngSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SpngSweepTest, LosslessAcrossSizes) {
  const int size = GetParam();
  const Image img = MakeTestImage(size, size / 2 + 1, 3,
                                  static_cast<uint64_t>(size));
  ASSERT_OK_AND_ASSIGN(auto bytes, SpngEncode(img));
  ASSERT_OK_AND_ASSIGN(Image decoded, SpngDecode(bytes));
  EXPECT_EQ(decoded, img);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpngSweepTest,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 161));

// --- SV264 -------------------------------------------------------------------------------

std::vector<Image> MakeTestVideo(int w, int h, int frames, uint64_t seed = 99) {
  // A moving bright square over a static textured background.
  std::vector<Image> video;
  const Image background = MakeTestImage(w, h, 3, seed);
  for (int f = 0; f < frames; ++f) {
    Image frame = background;
    const int cx = (f * 3) % (w - 12);
    const int cy = (f * 2) % (h - 12);
    for (int y = cy; y < cy + 12; ++y) {
      for (int x = cx; x < cx + 12; ++x) {
        frame.at(x, y, 0) = 250;
        frame.at(x, y, 1) = 240;
        frame.at(x, y, 2) = 40;
      }
    }
    video.push_back(std::move(frame));
  }
  return video;
}

TEST(Sv264Test, RoundtripSequentialDecode) {
  const auto video = MakeTestVideo(64, 48, 12);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 90, .gop = 5}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  EXPECT_EQ(decoder->num_frames(), 12);
  EXPECT_EQ(decoder->header().width, 64);
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK_AND_ASSIGN(Image frame, decoder->DecodeNext());
    ASSERT_OK_AND_ASSIGN(double psnr, Psnr(video[i], frame));
    EXPECT_GT(psnr, 26.0) << "frame " << i;
  }
  EXPECT_FALSE(decoder->DecodeNext().ok());  // end of stream
}

TEST(Sv264Test, RandomAccessMatchesSequential) {
  const auto video = MakeTestVideo(48, 48, 10);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 85, .gop = 4}));
  // Decode sequentially first.
  ASSERT_OK_AND_ASSIGN(auto seq, Sv264Decoder::Open(bytes));
  std::vector<Image> sequential;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Image f, seq->DecodeNext());
    sequential.push_back(std::move(f));
  }
  // Random access in scrambled order must give identical frames.
  ASSERT_OK_AND_ASSIGN(auto ra, Sv264Decoder::Open(bytes));
  for (int idx : {7, 2, 9, 0, 5, 5, 3, 8, 1, 6, 4}) {
    ASSERT_OK_AND_ASSIGN(Image f, ra->DecodeFrame(idx));
    EXPECT_EQ(f, sequential[idx]) << "frame " << idx;
  }
}

TEST(Sv264Test, SkipModeTriggersOnStaticContent) {
  // Identical frames: P-frames should be nearly all SKIP macroblocks.
  std::vector<Image> video(8, MakeTestImage(64, 64, 3));
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 80, .gop = 8}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(decoder->DecodeFrame(i).status());
  }
  EXPECT_GT(decoder->stats().mbs_skipped, 7 * 10);  // 16 MBs/frame, most skip
}

TEST(Sv264Test, StaticVideoCompressesFarBetterThanIntraOnly) {
  std::vector<Image> video(8, MakeTestImage(64, 64, 3));
  ASSERT_OK_AND_ASSIGN(auto inter, Sv264Encode(video, {.quality = 80, .gop = 8}));
  ASSERT_OK_AND_ASSIGN(auto intra, Sv264Encode(video, {.quality = 80, .gop = 1}));
  EXPECT_LT(inter.size() * 2, intra.size());
}

TEST(Sv264Test, DeblockingOffIsCloseButNotIdentical) {
  const auto video = MakeTestVideo(64, 64, 10);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 40, .gop = 10}));
  ASSERT_OK_AND_ASSIGN(auto with_db, Sv264Decoder::Open(bytes));
  ASSERT_OK_AND_ASSIGN(
      auto without_db,
      Sv264Decoder::Open(bytes, Sv264Decoder::Options{.deblock = false}));
  double min_psnr = 1e18;
  bool any_differs = false;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Image a, with_db->DecodeFrame(i));
    ASSERT_OK_AND_ASSIGN(Image b, without_db->DecodeFrame(i));
    if (!(a == b)) any_differs = true;
    ASSERT_OK_AND_ASSIGN(double psnr, Psnr(video[i], b));
    min_psnr = std::min(min_psnr, psnr);
  }
  EXPECT_TRUE(any_differs);          // reduced fidelity really differs
  EXPECT_GT(min_psnr, 20.0);         // ...but stays usable
  EXPECT_EQ(without_db->stats().deblock_edges, 0);
  EXPECT_GT(with_db->stats().deblock_edges, 0);
}

TEST(Sv264Test, RandomAccessDecodesOnlyGopPrefix) {
  const auto video = MakeTestVideo(48, 48, 30);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.quality = 80, .gop = 10}));
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  ASSERT_OK(decoder->DecodeFrame(22).status());
  // Frames 20, 21, 22 decoded (I at 20), not all 23.
  EXPECT_EQ(decoder->stats().frames_decoded, 3);
}

TEST(Sv264Test, RejectsMismatchedFrames) {
  std::vector<Image> bad;
  bad.push_back(MakeTestImage(32, 32, 3));
  bad.push_back(MakeTestImage(32, 16, 3));
  EXPECT_FALSE(Sv264Encode(bad).ok());
  EXPECT_FALSE(Sv264Encode({}).ok());
}

TEST(Sv264Test, CorruptContainerRejected) {
  const auto video = MakeTestVideo(32, 32, 4);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video));
  auto bad = bytes;
  bad[2] ^= 0xFF;
  EXPECT_FALSE(Sv264Decoder::Open(bad).ok());
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(Sv264Decoder::Open(truncated).ok());
}

// Frame 0 retyped from 'I' to 'P' (one byte) has no reference to predict
// from. Nor has frame 0 once its index entry also points at frame 1's real
// P-frame payload, whose skip and inter macroblocks used to predict from
// empty planes (a null read).
TEST(Sv264Test, PFrameWithoutReferenceRejected) {
  const auto video = MakeTestVideo(32, 32, 4);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video));
  const size_t type0 = 13;  // after magic, w, h, frames, gop, quality, deblock
  ASSERT_EQ(bytes[type0], 'I');
  ASSERT_EQ(bytes[type0 + 5], 'P');  // index entries: type byte, u32 offset
  auto retyped = bytes;
  retyped[type0] = 'P';
  auto redirected = retyped;
  std::copy(bytes.begin() + type0 + 6, bytes.begin() + type0 + 10,
            redirected.begin() + type0 + 1);
  for (const auto& stream : {retyped, redirected}) {
    ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(stream));
    EXPECT_EQ(decoder->DecodeFrame(0).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(decoder->DecodeFrame(2).status().code(),
              StatusCode::kCorruption);
  }
}

// Macroblock mode 3 does not exist; it used to blend residuals into an
// uninitialised prediction.
TEST(Sv264Test, BadMacroblockModeRejected) {
  const auto video = MakeTestVideo(32, 32, 2);
  ASSERT_OK_AND_ASSIGN(auto bytes, Sv264Encode(video, {.gop = 2}));
  ASSERT_EQ(bytes[13 + 5], 'P');  // frame 1
  // Frame 1's payload: its offset in the index, rebased past the index.
  BitReader index(bytes.data(), bytes.size());
  ASSERT_OK(index.SeekToByte(13 + 5 + 1));
  ASSERT_OK_AND_ASSIGN(uint32_t offset, index.ReadU32());
  BitReader payload(bytes.data(), bytes.size());
  ASSERT_OK(payload.SeekToByte(13 + 2 * 5 + 4 + offset));
  for (int t = 0; t < 4; ++t) {
    ASSERT_OK(HuffmanTable::Deserialize(&payload).status());
  }
  // The first macroblock's 2 mode bits open the byte after the tables.
  bytes[payload.byte_position()] |= 0xC0;
  ASSERT_OK_AND_ASSIGN(auto decoder, Sv264Decoder::Open(bytes));
  ASSERT_OK(decoder->DecodeFrame(0).status());
  EXPECT_EQ(decoder->DecodeFrame(1).status().code(), StatusCode::kCorruption);
}

// --- Format registry ------------------------------------------------------------------

TEST(FormatTest, Table4FeatureMatrix) {
  const auto& reg = FormatRegistry::Global();
  ASSERT_OK_AND_ASSIGN(auto sjpg, reg.Find("SJPG"));
  EXPECT_TRUE(sjpg.Supports(LowFidelityFeature::kPartialDecoding));
  EXPECT_EQ(sjpg.paper_analogue, "JPEG");
  ASSERT_OK_AND_ASSIGN(auto spng, reg.Find("SPNG"));
  EXPECT_TRUE(spng.Supports(LowFidelityFeature::kEarlyStopping));
  EXPECT_TRUE(spng.lossless);
  ASSERT_OK_AND_ASSIGN(auto sv264, reg.Find("SV264"));
  EXPECT_TRUE(sv264.Supports(LowFidelityFeature::kReducedFidelity));
  EXPECT_EQ(sv264.media, MediaType::kVideo);
  EXPECT_FALSE(reg.Find("GIF").ok());
  EXPECT_EQ(reg.Implemented().size(), 3u);
}

// --- Block codec primitives ----------------------------------------------------------

TEST(BlockCodecTest, ValueBitsRoundtrip) {
  for (int v = -2000; v <= 2000; ++v) {
    const int size = BitSize(v);
    if (v == 0) {
      EXPECT_EQ(size, 0);
      continue;
    }
    const uint32_t bits = EncodeValueBits(v, size);
    EXPECT_EQ(DecodeValueBits(bits, size), v) << v;
  }
}

TEST(BlockCodecTest, BitSizeMatchesLog2) {
  EXPECT_EQ(BitSize(0), 0);
  EXPECT_EQ(BitSize(1), 1);
  EXPECT_EQ(BitSize(-1), 1);
  EXPECT_EQ(BitSize(2), 2);
  EXPECT_EQ(BitSize(3), 2);
  EXPECT_EQ(BitSize(-3), 2);
  EXPECT_EQ(BitSize(255), 8);
  EXPECT_EQ(BitSize(256), 9);
}


// --- Block decoder parity and mutation sweep ---------------------------------

// The block entropy decoder before the bit-window rewrite, kept as the
// reference: one HuffmanTable::DecodeSymbol and one BitReader::ReadBits per
// symbol.
Status ReferenceDecodeBlock(BitReader* reader, const HuffmanTable& dc_table,
                            const HuffmanTable& ac_table, int* dc_pred,
                            CoeffBlock* block) {
  std::memset(block->zz, 0, sizeof(block->zz));
  SMOL_ASSIGN_OR_RETURN(int dc_size, dc_table.DecodeSymbol(reader));
  if (dc_size > 15) return Status::Corruption("bad DC size");
  int diff = 0;
  if (dc_size > 0) {
    SMOL_ASSIGN_OR_RETURN(uint32_t bits, reader->ReadBits(dc_size));
    diff = DecodeValueBits(bits, dc_size);
  }
  *dc_pred += diff;
  block->zz[0] = static_cast<int16_t>(*dc_pred);
  int i = 1;
  while (i < 64) {
    SMOL_ASSIGN_OR_RETURN(int sym, ac_table.DecodeSymbol(reader));
    if (sym == 0x00) break;  // EOB
    if (sym == 0xF0) {       // ZRL
      i += 16;
      continue;
    }
    const int run = sym >> 4;
    const int size = sym & 0x0F;
    if (size == 0) return Status::Corruption("bad AC symbol");
    i += run;
    if (i >= 64) return Status::Corruption("AC index overflow");
    SMOL_ASSIGN_OR_RETURN(uint32_t bits, reader->ReadBits(size));
    block->zz[i] = static_cast<int16_t>(DecodeValueBits(bits, size));
    ++i;
  }
  return Status::OK();
}

// Both block decoders, each on its own reader over the same bytes, stepped
// in lockstep.
struct DecoderPair {
  explicit DecoderPair(const std::vector<uint8_t>& bytes)
      : ref(bytes.data(), bytes.size()), fast(bytes.data(), bytes.size()) {}

  bool Seek(size_t byte) {
    return ref.SeekToByte(byte).ok() && fast.SeekToByte(byte).ok();
  }

  // Decodes one block with both. Returns "" when they agree (same status
  // code; when OK, the same coefficients -- the reference's zig-zag block
  // dezigzagged against DecodeBlock's natural order -- DC predictor and
  // reader position), else what differed. *ok reports the shared status.
  std::string Block(const HuffmanTable& dc, const HuffmanTable& ac,
                    const BlockDecodeTables& tables, int* ref_pred,
                    int* fast_pred, bool* ok) {
    CoeffBlock want;
    DecodedBlock got;
    const Status ws = ReferenceDecodeBlock(&ref, dc, ac, ref_pred, &want);
    const Status gs = DecodeBlock(&fast, tables, fast_pred, &got);
    *ok = ws.ok();
    if (ws.code() != gs.code()) {
      return "status " + ws.ToString() + " vs " + gs.ToString();
    }
    if (!ws.ok()) return "";
    for (int i = 0; i < 64; ++i) {
      if (want.zz[i] != got.coef[kZigZag[i]]) {
        return "coefficient " + std::to_string(i) + " (zig-zag) differs";
      }
    }
    if (*ref_pred != *fast_pred) return "DC predictor differs";
    if (ref.bit_position() != fast.bit_position()) {
      return "reader position " + std::to_string(ref.bit_position()) +
             " vs " + std::to_string(fast.bit_position());
    }
    return "";
  }

  BitReader ref;
  BitReader fast;
};

// Blocks compared by the parity helpers, split by their shared status.
struct ParityCounts {
  int64_t ok = 0;
  int64_t failed = 0;
};

// An SJPG stream's entropy tables and row index, read with the public
// bitstream/Huffman API in the layout SjpgEncode writes. Unlike the
// decoder it does not check the row index against the stream length, so a
// truncated stream still reaches the block decoders.
struct SjpgLayout {
  bool color = false;
  int mcu_rows = 0;
  int mcu_cols = 0;
  HuffmanTable dc[2], ac[2];  // [0] luma, [1] chroma (gray: luma again)
  std::vector<uint32_t> row_offsets;
  size_t entropy_base = 0;
};

Result<SjpgLayout> ParseSjpgLayout(const std::vector<uint8_t>& bytes) {
  BitReader r(bytes.data(), bytes.size());
  SMOL_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != 0x3150'4A53) return Status::Corruption("magic");
  SMOL_ASSIGN_OR_RETURN(uint16_t w, r.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint16_t h, r.ReadU16());
  SMOL_ASSIGN_OR_RETURN(uint8_t channels, r.ReadByte());
  SMOL_RETURN_IF_ERROR(r.ReadByte().status());  // quality
  if (w == 0 || h == 0 || (channels != 1 && channels != 3)) {
    return Status::Corruption("header");
  }
  SjpgLayout layout;
  layout.color = channels == 3;
  const int mcu = layout.color ? 16 : 8;
  layout.mcu_cols = (w + mcu - 1) / mcu;
  layout.mcu_rows = (h + mcu - 1) / mcu;
  for (int i = 0; i < (layout.color ? 128 : 64); ++i) {
    SMOL_RETURN_IF_ERROR(r.ReadU16().status());  // quant tables
  }
  for (int t = 0; t < (layout.color ? 2 : 1); ++t) {
    SMOL_ASSIGN_OR_RETURN(layout.dc[t], HuffmanTable::Deserialize(&r));
    SMOL_ASSIGN_OR_RETURN(layout.ac[t], HuffmanTable::Deserialize(&r));
  }
  if (!layout.color) {
    layout.dc[1] = layout.dc[0];
    layout.ac[1] = layout.ac[0];
  }
  SMOL_ASSIGN_OR_RETURN(uint16_t rows, r.ReadU16());
  if (rows != layout.mcu_rows) return Status::Corruption("row count");
  layout.row_offsets.resize(rows + 1);
  for (auto& offset : layout.row_offsets) {
    SMOL_ASSIGN_OR_RETURN(offset, r.ReadU32());
  }
  layout.entropy_base = r.byte_position();
  return layout;
}

constexpr int kColorComponent[6] = {0, 0, 0, 0, 1, 2};

// Decodes MCU row \p mr of \p bytes with DecodeBlocks in one call (as the
// SJPG decoder does) and with a loop of ReferenceDecodeBlock up to its first
// failure. Returns "" when they agree -- the same first failing block, or
// none; the same coefficients (and so DC predictors) in every block before
// it; and for a whole row, the same predictors and reader position -- else
// what differed.
std::string CompareRowDecoder(const std::vector<uint8_t>& bytes,
                              const SjpgLayout& layout,
                              const BlockDecodeTables tables[2], int mr) {
  const int blocks_per_mcu = layout.color ? 6 : 1;
  const int count = layout.mcu_cols * blocks_per_mcu;
  BitReader ref(bytes.data(), bytes.size());
  BitReader fast(bytes.data(), bytes.size());
  const size_t start = layout.entropy_base + layout.row_offsets[mr];
  if (!ref.SeekToByte(start).ok() || !fast.SeekToByte(start).ok()) return "";
  std::vector<CoeffBlock> want(static_cast<size_t>(count));
  int ref_pred[3] = {0, 0, 0};
  int ref_decoded = 0;
  Status ref_status;
  for (; ref_decoded < count; ++ref_decoded) {
    const int comp = layout.color ? kColorComponent[ref_decoded % 6] : 0;
    const int t = comp == 0 ? 0 : 1;
    ref_status = ReferenceDecodeBlock(&ref, layout.dc[t], layout.ac[t],
                                      &ref_pred[comp], &want[ref_decoded]);
    if (!ref_status.ok()) break;
  }
  const BlockDecodeTables* slots[6];
  int components[6];
  for (int b = 0; b < 6; ++b) {
    components[b] = layout.color ? kColorComponent[b] : 0;
    slots[b] = &tables[components[b] == 0 ? 0 : 1];
  }
  std::vector<DecodedBlock> got(static_cast<size_t>(count));
  int fast_pred[3] = {0, 0, 0};
  int decoded = -1;
  const Status status = DecodeBlocks(&fast, slots, components, blocks_per_mcu,
                                     count, fast_pred, got.data(), &decoded);
  const std::string where = "row " + std::to_string(mr) + " decoder: ";
  if (status.code() != ref_status.code() || decoded != ref_decoded) {
    return where + "block " + std::to_string(ref_decoded) + " " +
           ref_status.ToString() + " vs block " + std::to_string(decoded) +
           " " + status.ToString();
  }
  for (int k = 0; k < decoded; ++k) {
    for (int i = 0; i < 64; ++i) {
      if (want[k].zz[i] != got[k].coef[kZigZag[i]]) {
        return where + "block " + std::to_string(k) + " coefficient " +
               std::to_string(i) + " (zig-zag) differs";
      }
    }
  }
  if (!status.ok()) return "";
  for (int c = 0; c < 3; ++c) {
    if (ref_pred[c] != fast_pred[c]) return where + "DC predictor differs";
  }
  if (ref.bit_position() != fast.bit_position()) {
    return where + "reader position " + std::to_string(ref.bit_position()) +
           " vs " + std::to_string(fast.bit_position());
  }
  return "";
}

// Decodes the MCU rows of \p bytes from \p first_row on with both block
// decoders side by side, a row stopping at its first failing block (the
// decoders stop there too), and each row again with DecodeBlocks. Returns ""
// when every block agrees, else the first mismatch.
std::string CompareSjpgRows(const std::vector<uint8_t>& bytes,
                            const SjpgLayout& layout, int first_row,
                            ParityCounts* counts) {
  const BlockDecodeTables tables[2] = {
      BlockDecodeTables(layout.dc[0], layout.ac[0]),
      BlockDecodeTables(layout.dc[1], layout.ac[1])};
  const int blocks_per_mcu = layout.color ? 6 : 1;
  for (int mr = first_row; mr < layout.mcu_rows; ++mr) {
    const std::string row_diff = CompareRowDecoder(bytes, layout, tables, mr);
    if (!row_diff.empty()) return row_diff;
    DecoderPair pair(bytes);
    if (!pair.Seek(layout.entropy_base + layout.row_offsets[mr])) continue;
    int ref_pred[3] = {0, 0, 0};
    int fast_pred[3] = {0, 0, 0};
    bool ok = true;
    for (int mc = 0; mc < layout.mcu_cols && ok; ++mc) {
      for (int b = 0; b < blocks_per_mcu && ok; ++b) {
        const int comp = layout.color ? kColorComponent[b] : 0;
        const int t = comp == 0 ? 0 : 1;
        const std::string diff =
            pair.Block(layout.dc[t], layout.ac[t], tables[t], &ref_pred[comp],
                       &fast_pred[comp], &ok);
        if (!diff.empty()) {
          return "row " + std::to_string(mr) + " mcu " + std::to_string(mc) +
                 " block " + std::to_string(b) + ": " + diff;
        }
        ++(ok ? counts->ok : counts->failed);
      }
    }
  }
  return "";
}

// Runs every whole-stream decoder on \p bytes, whatever its format: SJPG at
// each denominator and with an ROI; SPNG; SV264 in order and by random
// access. They must return (any status); a crash or sanitizer
// report fails the suite.
void RunWholeDecoders(const std::vector<uint8_t>& bytes) {
  auto sjpg_header = SjpgPeekHeader(bytes);
  for (int denom : {1, 2, 4, 8}) {
    SjpgDecodeOptions options;
    options.scale_denom = denom;
    (void)SjpgDecode(bytes, options);
  }
  if (sjpg_header.ok()) {
    const SjpgHeader& h = sjpg_header.value();
    SjpgDecodeOptions roi;
    roi.roi = Roi{h.width / 4, h.height / 3, std::max(1, h.width / 2),
                  std::max(1, h.height / 2)};
    (void)SjpgDecode(bytes, roi);
  }
  (void)SpngPeekHeader(bytes);
  (void)SpngDecode(bytes);
  SpngDecodeOptions spng_early;
  spng_early.max_rows = 3;
  (void)SpngDecode(bytes, spng_early);
  auto video = Sv264Decoder::Open(bytes);
  if (video.ok()) {
    Sv264Decoder& decoder = *video.value();
    for (int i = 0; i < decoder.num_frames(); ++i) (void)decoder.DecodeFrame(i);
    (void)decoder.DecodeFrame(0);
    (void)decoder.DecodeFrame(decoder.num_frames() - 1);
  }
}

// Flips 1-4 seeded random bits.
std::vector<uint8_t> FlipBits(std::vector<uint8_t> bytes, Rng* rng) {
  const int flips = 1 + static_cast<int>(rng->Uniform(4));
  for (int f = 0; f < flips; ++f) {
    const uint64_t bit = rng->Uniform(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return bytes;
}

struct SjpgParityCase {
  const char* name;
  int width;
  int height;
  int channels;
  int quality;
  enum Content { kBenchmark, kSmooth, kNoise } content;
};

std::vector<uint8_t> EncodeParityCase(const SjpgParityCase& c) {
  Image img;
  if (c.content == SjpgParityCase::kBenchmark) {
    // The serving benchmark's input generator: 8-class synthetic images.
    SynthImageOptions options;
    options.width = c.width;
    options.height = c.height;
    options.num_classes = 8;
    options.seed = 11;
    img = SynthImageGenerator(options).Generate(3, 3);
  } else if (c.content == SjpgParityCase::kSmooth) {
    img = MakeTestImage(c.width, c.height, c.channels,
                        static_cast<uint64_t>(c.width * 7 + c.height));
  } else {
    img = MakeNoiseImage(c.width, c.height, c.channels);
  }
  auto bytes = SjpgEncode(img, {.quality = c.quality});
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? bytes.value() : std::vector<uint8_t>{};
}

class SjpgParityTest : public ::testing::TestWithParam<SjpgParityCase> {};

TEST_P(SjpgParityTest, BlockDecoderMatchesReference) {
  const auto bytes = EncodeParityCase(GetParam());
  ASSERT_OK_AND_ASSIGN(SjpgLayout layout, ParseSjpgLayout(bytes));
  ParityCounts counts;
  ASSERT_EQ(CompareSjpgRows(bytes, layout, 0, &counts), "");
  EXPECT_EQ(counts.ok, int64_t{layout.mcu_rows} * layout.mcu_cols *
                           (layout.color ? 6 : 1));
  EXPECT_EQ(counts.failed, 0);
}

// Every truncation and 250 seeded 1-4-bit flips, compared block by block
// and run through every whole-stream decoder.
TEST_P(SjpgParityTest, MutantsMatchReferenceAndNeverCrash) {
  const auto bytes = EncodeParityCase(GetParam());
  ASSERT_OK_AND_ASSIGN(SjpgLayout pristine, ParseSjpgLayout(bytes));
  ParityCounts counts;
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    RunWholeDecoders(cut);
    auto layout = ParseSjpgLayout(cut);
    if (!layout.ok()) continue;
    // Rows that end 16+ bytes before the cut decode exactly as in the whole
    // stream (already compared): the window reads at most 8 bytes ahead.
    int first_row = 0;
    while (first_row < pristine.mcu_rows &&
           pristine.entropy_base + pristine.row_offsets[first_row + 1] + 16 <=
               keep) {
      ++first_row;
    }
    ASSERT_EQ(CompareSjpgRows(cut, layout.value(), first_row, &counts), "")
        << "kept " << keep << " of " << bytes.size();
  }
  Rng rng(0x5eed + static_cast<uint64_t>(bytes.size()));
  for (int trial = 0; trial < 250; ++trial) {
    const std::vector<uint8_t> mutant = FlipBits(bytes, &rng);
    RunWholeDecoders(mutant);
    auto layout = ParseSjpgLayout(mutant);
    if (!layout.ok()) continue;
    ASSERT_EQ(CompareSjpgRows(mutant, layout.value(), 0, &counts), "")
        << "flip trial " << trial;
  }
  // Both outcomes were exercised.
  EXPECT_GT(counts.ok, 0);
  EXPECT_GT(counts.failed, 0);
}

// The block decoders check for the end of the stream once per block while
// 264 bytes remain past the bit window's load pointer, and after every
// symbol nearer the end. The benchmark stream's last row starts further than
// that from the end, so one DecodeBlocks call switches paths inside it:
// every cut and 400 seeded flips inside its last 264 bytes, where the
// per-symbol checks run on damaged data.
TEST(BlockDecodeParityTest, FlipsAndCutsNearTheEndMatchReference) {
  constexpr size_t kFarBytes = 264;
  const auto bytes = EncodeParityCase(
      {"bench128q85", 128, 128, 3, 85, SjpgParityCase::kBenchmark});
  ASSERT_OK_AND_ASSIGN(SjpgLayout pristine, ParseSjpgLayout(bytes));
  ASSERT_LT(pristine.entropy_base +
                pristine.row_offsets[pristine.mcu_rows - 1] + kFarBytes,
            bytes.size());
  ParityCounts counts;
  for (size_t keep = bytes.size() - kFarBytes; keep < bytes.size(); ++keep) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    RunWholeDecoders(cut);
    ASSERT_EQ(CompareSjpgRows(cut, pristine, 0, &counts), "")
        << "kept " << keep;
  }
  Rng rng(264);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> mutant = bytes;
    const int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips; ++f) {
      const uint64_t bit = (bytes.size() - kFarBytes) * 8 +
                           rng.Uniform(kFarBytes * 8);
      mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    RunWholeDecoders(mutant);
    ASSERT_EQ(CompareSjpgRows(mutant, pristine, 0, &counts), "")
        << "flip trial " << trial;
  }
  EXPECT_GT(counts.ok, 0);
  EXPECT_GT(counts.failed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SjpgParityTest,
    ::testing::Values(
        SjpgParityCase{"bench128q85", 128, 128, 3, 85,
                       SjpgParityCase::kBenchmark},
        SjpgParityCase{"odd33x17q10", 33, 17, 3, 10, SjpgParityCase::kSmooth},
        SjpgParityCase{"rect100x75q95", 100, 75, 3, 95,
                       SjpgParityCase::kSmooth},
        SjpgParityCase{"bench256q50", 256, 256, 3, 50,
                       SjpgParityCase::kBenchmark},
        SjpgParityCase{"noise64q100", 64, 64, 3, 100, SjpgParityCase::kNoise},
        SjpgParityCase{"gray96x80q75", 96, 80, 1, 75,
                       SjpgParityCase::kSmooth}),
    [](const ::testing::TestParamInfo<SjpgParityCase>& info) {
      return std::string(info.param.name);
    });

// A stream laid out as SV264 lays out a P-frame: per macroblock a 2-bit
// mode and, for inter blocks, two motion-vector fields written with
// WriteBits, then six EncodeBlock blocks (4 luma + 2 chroma). Random
// coefficients give a wide alphabet: long codes, wide values, ZRL runs and
// blocks that end without an EOB.
struct InterleavedStream {
  HuffmanTable dc[2], ac[2];
  std::vector<uint8_t> bytes;
  int macroblocks = 0;
};

InterleavedStream MakeInterleavedStream() {
  Rng rng(2024);
  constexpr int kMacroblocks = 120;
  std::vector<int> modes(kMacroblocks);
  std::vector<CoeffBlock> blocks(kMacroblocks * 6);
  for (int m = 0; m < kMacroblocks; ++m) {
    modes[m] = static_cast<int>(rng.Uniform(3));
    for (int b = 0; b < 6; ++b) {
      CoeffBlock& block = blocks[m * 6 + b];
      std::memset(block.zz, 0, sizeof(block.zz));
      block.zz[0] = static_cast<int16_t>(static_cast<int>(rng.Uniform(4001)) -
                                         2000);
      const uint64_t density = 2 + rng.Uniform(30);
      for (int i = 1; i < 64; ++i) {
        if (rng.Uniform(density) != 0) continue;
        const int size = 1 + static_cast<int>(rng.Uniform(10));
        const int magnitude =
            (1 << (size - 1)) + static_cast<int>(rng.Uniform(1u << (size - 1)));
        block.zz[i] = static_cast<int16_t>(rng.Uniform(2) ? magnitude
                                                          : -magnitude);
      }
      if (rng.Uniform(8) == 0) block.zz[63] = 1;  // no EOB
    }
  }
  InterleavedStream out;
  out.macroblocks = kMacroblocks;
  std::vector<uint64_t> dc_freq[2] = {std::vector<uint64_t>(17, 0),
                                      std::vector<uint64_t>(17, 0)};
  std::vector<uint64_t> ac_freq[2] = {std::vector<uint64_t>(256, 0),
                                      std::vector<uint64_t>(256, 0)};
  for (int m = 0; m < kMacroblocks; ++m) {
    if (modes[m] == 0) continue;
    int pred[3] = {0, 0, 0};
    for (int b = 0; b < 6; ++b) {
      const int t = b < 4 ? 0 : 1;
      AccumulateBlockStats(blocks[m * 6 + b], &pred[b < 4 ? 0 : b - 3],
                           dc_freq[t], ac_freq[t]);
    }
  }
  for (int t = 0; t < 2; ++t) {
    dc_freq[t][0] += 1;
    ac_freq[t][0] += 1;
    out.dc[t] = HuffmanTable::FromFrequencies(dc_freq[t]).MoveValue();
    out.ac[t] = HuffmanTable::FromFrequencies(ac_freq[t]).MoveValue();
  }
  BitWriter writer;
  for (int m = 0; m < kMacroblocks; ++m) {
    writer.WriteBits(static_cast<uint32_t>(modes[m]), 2);
    if (modes[m] == 0) continue;
    if (modes[m] == 1) {
      for (int component = 0; component < 2; ++component) {
        const int v = static_cast<int>(rng.Uniform(33)) - 16;
        const int size = BitSize(v);
        writer.WriteBits(static_cast<uint32_t>(size), 4);
        if (size > 0) writer.WriteBits(EncodeValueBits(v, size), size);
      }
    }
    int pred[3] = {0, 0, 0};
    for (int b = 0; b < 6; ++b) {
      const int t = b < 4 ? 0 : 1;
      EncodeBlock(blocks[m * 6 + b], &pred[b < 4 ? 0 : b - 3], out.dc[t],
                  out.ac[t], &writer);
    }
  }
  out.bytes = writer.Finish();
  return out;
}

// Walks \p bytes as MakeInterleavedStream wrote them, reading the fields
// with ReadBits and the blocks with both decoders; stops at the first
// failure. Returns "" when every block agrees, else the first mismatch.
std::string CompareInterleaved(const InterleavedStream& stream,
                               const std::vector<uint8_t>& bytes,
                               ParityCounts* counts) {
  const BlockDecodeTables tables[2] = {
      BlockDecodeTables(stream.dc[0], stream.ac[0]),
      BlockDecodeTables(stream.dc[1], stream.ac[1])};
  DecoderPair pair(bytes);
  // Reads one field from both readers; false once either fails.
  auto read_field = [&](int nbits, uint32_t* value) {
    auto a = pair.ref.ReadBits(nbits);
    auto b = pair.fast.ReadBits(nbits);
    if (!a.ok() || !b.ok()) return false;
    *value = a.value();
    return a.value() == b.value();
  };
  for (int m = 0; m < stream.macroblocks; ++m) {
    uint32_t mode = 0;
    if (!read_field(2, &mode)) return "";
    if (mode == 0) continue;
    if (mode == 1) {
      for (int component = 0; component < 2; ++component) {
        uint32_t size = 0, value = 0;
        if (!read_field(4, &size)) return "";
        if (size > 0 && !read_field(static_cast<int>(size), &value)) return "";
      }
    }
    int ref_pred[3] = {0, 0, 0};
    int fast_pred[3] = {0, 0, 0};
    for (int b = 0; b < 6; ++b) {
      const int t = b < 4 ? 0 : 1;
      const int p = b < 4 ? 0 : b - 3;
      bool ok = true;
      const std::string diff =
          pair.Block(stream.dc[t], stream.ac[t], tables[t], &ref_pred[p],
                     &fast_pred[p], &ok);
      if (!diff.empty()) {
        return "macroblock " + std::to_string(m) + " block " +
               std::to_string(b) + ": " + diff;
      }
      ++(ok ? counts->ok : counts->failed);
      if (!ok) return "";
    }
  }
  return "";
}

TEST(BlockDecodeParityTest, InterleavedFieldsAndBlocksMatchReference) {
  const InterleavedStream stream = MakeInterleavedStream();
  // The random alphabet reaches codes longer than the LUT.
  int long_codes = 0;
  for (int sym = 0; sym < 256; ++sym) {
    if (stream.ac[0].CodeLength(sym) > kHuffmanLutBits) ++long_codes;
  }
  EXPECT_GT(long_codes, 0);
  ParityCounts counts;
  ASSERT_EQ(CompareInterleaved(stream, stream.bytes, &counts), "");
  EXPECT_GT(counts.ok, 300);
  EXPECT_EQ(counts.failed, 0);

  for (size_t keep = 0; keep < stream.bytes.size(); ++keep) {
    const std::vector<uint8_t> cut(stream.bytes.begin(),
                                   stream.bytes.begin() + keep);
    ASSERT_EQ(CompareInterleaved(stream, cut, &counts), "") << "kept " << keep;
  }
  Rng rng(77);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::vector<uint8_t> mutant = FlipBits(stream.bytes, &rng);
    ASSERT_EQ(CompareInterleaved(stream, mutant, &counts), "")
        << "flip trial " << trial;
  }
  EXPECT_GT(counts.failed, 0);
}

// Every truncation and seeded flips of an SPNG and an SV264 stream through
// every whole-stream decoder.
TEST(MutationSweepTest, SpngAndSv264MutantsNeverCrash) {
  std::vector<std::vector<uint8_t>> streams;
  for (int channels : {1, 3}) {
    auto spng = SpngEncode(MakeTestImage(40, 24, channels, 5));
    ASSERT_OK(spng.status());
    streams.push_back(spng.value());
  }
  auto video = Sv264Encode(MakeTestVideo(32, 32, 5), {.quality = 75, .gop = 3});
  ASSERT_OK(video.status());
  streams.push_back(video.value());
  Rng rng(99);
  for (const auto& bytes : streams) {
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      RunWholeDecoders(
          std::vector<uint8_t>(bytes.begin(), bytes.begin() + keep));
    }
    for (int trial = 0; trial < 400; ++trial) {
      RunWholeDecoders(FlipBits(bytes, &rng));
    }
  }
}

}  // namespace
}  // namespace smol
