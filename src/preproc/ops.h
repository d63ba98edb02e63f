// Preprocessing operators (§2's standard recipe, §6.2's optimization units).
//
// A preprocessing pipeline transforms a decoded 8-bit HWC image into the
// normalized float NCHW buffer the DNN consumes:
//   resize (aspect-preserving) -> center crop -> u8->f32 convert ->
//   normalize (x/255 - mean)/std -> channel split (HWC -> CHW).
// Each step exists as a standalone operator here; fused kernels live in
// fused.h; the DAG optimizer (graph.h) rewrites pipelines over these ops.
#ifndef SMOL_PREPROC_OPS_H_
#define SMOL_PREPROC_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/codec/image.h"
#include "src/util/result.h"

namespace smol {

/// Kinds of preprocessing operators the DAG optimizer understands.
enum class OpKind {
  kDecode,         ///< Compressed bytes -> u8 HWC image.
  kResize,         ///< Bilinear resize (aspect-preserving short side).
  kCrop,           ///< Center crop to a fixed size.
  kConvertFloat,   ///< u8 -> f32 (scaled to [0, 1]).
  kNormalize,      ///< Per-channel (x - mean) / std.
  kChannelSplit,   ///< Interleaved HWC -> planar CHW.
  kFusedTail,      ///< Fused convert+normalize+split (u8 HWC -> f32 CHW).
};

const char* OpKindName(OpKind kind);

/// Data type flowing between operators (affects arithmetic cost, §6.2).
enum class DataType { kU8, kF32 };

/// Normalization constants used across the library.
struct NormalizeParams {
  float mean[3] = {0.485f, 0.456f, 0.406f};
  float std[3] = {0.229f, 0.224f, 0.225f};
};

/// \brief A float image buffer in either HWC or CHW layout.
struct FloatImage {
  int width = 0;
  int height = 0;
  int channels = 0;
  bool chw = false;  ///< true: planar CHW; false: interleaved HWC.
  std::vector<float> data;

  size_t size() const { return data.size(); }
};

// --- Standalone operator implementations -------------------------------------

/// Aspect-preserving resize: scales so the short side equals
/// \p short_side, then returns the resized image (§2 step 2, first half).
Result<Image> ResizeShortSide(const Image& src, int short_side);

/// Bilinear resize to exact dimensions.
Result<Image> ResizeExact(const Image& src, int out_w, int out_h);

/// Center crop (§2 step 2, second half).
Result<Image> CenterCrop(const Image& src, int crop_w, int crop_h);

/// u8 HWC -> f32 HWC scaled to [0, 1].
Result<FloatImage> ConvertToFloat(const Image& src);

/// Same conversion into \p out, reusing its storage across calls (the
/// allocation-free form the zero-copy plan executor uses).
Status ConvertToFloatInto(const Image& src, FloatImage* out);

/// Per-channel normalization in place (layout preserved).
Status Normalize(FloatImage* img, const NormalizeParams& params);

/// HWC -> CHW split (f32).
Result<FloatImage> ChannelSplit(const FloatImage& src);

/// HWC -> CHW split writing into a caller-provided buffer of \p dst_size
/// floats (a pooled pinned staging slot in the zero-copy serving path).
/// Also accepts an already-CHW source, which degrades to a copy.
Status ChannelSplitInto(const FloatImage& src, float* dst, size_t dst_size);

/// Bilinear resize on float data (the expensive ordering the optimizer
/// avoids; present so plans that normalize before resizing are executable).
Result<FloatImage> ResizeF32(const FloatImage& src, int out_w, int out_h);

/// Crop on float data (either layout).
Result<FloatImage> CropF32(const FloatImage& src, const Roi& roi);

}  // namespace smol

#endif  // SMOL_PREPROC_OPS_H_
