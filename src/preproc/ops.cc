#include "src/preproc/ops.h"

#include <algorithm>
#include <cmath>

#include "src/preproc/resize.h"
#include "src/util/macros.h"

namespace smol {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kDecode:
      return "Decode";
    case OpKind::kResize:
      return "Resize";
    case OpKind::kCrop:
      return "Crop";
    case OpKind::kConvertFloat:
      return "ConvertFloat";
    case OpKind::kNormalize:
      return "Normalize";
    case OpKind::kChannelSplit:
      return "ChannelSplit";
    case OpKind::kFusedTail:
      return "FusedTail";
  }
  return "?";
}

Result<Image> ResizeShortSide(const Image& src, int short_side) {
  if (src.empty()) return Status::InvalidArgument("empty image");
  if (short_side <= 0) return Status::InvalidArgument("bad short side");
  const int cur_short = std::min(src.width(), src.height());
  const double scale =
      static_cast<double>(short_side) / static_cast<double>(cur_short);
  const int out_w =
      std::max(1, static_cast<int>(std::lround(src.width() * scale)));
  const int out_h =
      std::max(1, static_cast<int>(std::lround(src.height() * scale)));
  return ResizeBilinear(src, out_w, out_h);
}

Result<Image> ResizeExact(const Image& src, int out_w, int out_h) {
  if (src.empty()) return Status::InvalidArgument("empty image");
  if (out_w <= 0 || out_h <= 0) return Status::InvalidArgument("bad size");
  return ResizeBilinear(src, out_w, out_h);
}

Result<Image> CenterCrop(const Image& src, int crop_w, int crop_h) {
  if (src.empty()) return Status::InvalidArgument("empty image");
  if (crop_w > src.width() || crop_h > src.height()) {
    return Status::OutOfRange("crop larger than image");
  }
  return CropImage(src, Roi::CenterCrop(src.width(), src.height(), crop_w,
                                        crop_h));
}

Result<FloatImage> ConvertToFloat(const Image& src) {
  FloatImage out;
  SMOL_RETURN_IF_ERROR(ConvertToFloatInto(src, &out));
  return out;
}

Status ConvertToFloatInto(const Image& src, FloatImage* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (src.empty()) return Status::InvalidArgument("empty image");
  out->width = src.width();
  out->height = src.height();
  out->channels = src.channels();
  out->chw = false;
  out->data.resize(src.size_bytes());
  const uint8_t* p = src.data();
  for (size_t i = 0; i < out->data.size(); ++i) {
    out->data[i] = static_cast<float>(p[i]) * (1.0f / 255.0f);
  }
  return Status::OK();
}

Status Normalize(FloatImage* img, const NormalizeParams& params) {
  if (img == nullptr || img->data.empty()) {
    return Status::InvalidArgument("empty float image");
  }
  const int c = img->channels;
  if (img->chw) {
    const size_t plane = static_cast<size_t>(img->width) * img->height;
    for (int ch = 0; ch < c; ++ch) {
      const float mean = params.mean[ch % 3];
      const float inv_std = 1.0f / params.std[ch % 3];
      float* p = img->data.data() + static_cast<size_t>(ch) * plane;
      for (size_t i = 0; i < plane; ++i) {
        p[i] = (p[i] - mean) * inv_std;
      }
    }
  } else {
    float inv_std[3];
    for (int ch = 0; ch < std::min(c, 3); ++ch) {
      inv_std[ch] = 1.0f / params.std[ch];
    }
    const size_t pixels = static_cast<size_t>(img->width) * img->height;
    for (size_t i = 0; i < pixels; ++i) {
      for (int ch = 0; ch < c; ++ch) {
        float& v = img->data[i * c + ch];
        v = (v - params.mean[ch % 3]) * inv_std[ch % 3];
      }
    }
  }
  return Status::OK();
}

Result<FloatImage> ChannelSplit(const FloatImage& src) {
  if (src.data.empty()) return Status::InvalidArgument("empty float image");
  if (src.chw) return src;  // already planar
  FloatImage out;
  out.width = src.width;
  out.height = src.height;
  out.channels = src.channels;
  out.chw = true;
  out.data.resize(src.data.size());
  SMOL_RETURN_IF_ERROR(ChannelSplitInto(src, out.data.data(), out.data.size()));
  return out;
}

Status ChannelSplitInto(const FloatImage& src, float* dst, size_t dst_size) {
  if (src.data.empty()) return Status::InvalidArgument("empty float image");
  if (dst == nullptr || dst_size < src.data.size()) {
    return Status::InvalidArgument("destination too small");
  }
  if (src.chw) {  // already planar: plain copy into the staging slot
    std::copy(src.data.begin(), src.data.end(), dst);
    return Status::OK();
  }
  const size_t pixels = static_cast<size_t>(src.width) * src.height;
  for (size_t i = 0; i < pixels; ++i) {
    for (int c = 0; c < src.channels; ++c) {
      dst[static_cast<size_t>(c) * pixels + i] = src.data[i * src.channels + c];
    }
  }
  return Status::OK();
}

Result<FloatImage> ResizeF32(const FloatImage& src, int out_w, int out_h) {
  if (src.data.empty()) return Status::InvalidArgument("empty float image");
  if (src.chw) {
    return Status::InvalidArgument("ResizeF32 expects HWC layout");
  }
  FloatImage out;
  out.width = out_w;
  out.height = out_h;
  out.channels = src.channels;
  out.chw = false;
  out.data.resize(static_cast<size_t>(out_w) * out_h * src.channels);
  internal::ResizeBilinearF32(src.data.data(), src.width, src.height,
                              src.channels, out_w, out_h, out.data.data());
  return out;
}

Result<FloatImage> CropF32(const FloatImage& src, const Roi& roi) {
  if (src.data.empty()) return Status::InvalidArgument("empty float image");
  // Compared without forming roi.x + roi.width, which can overflow int.
  if (roi.empty() || roi.x < 0 || roi.y < 0 || roi.width > src.width - roi.x ||
      roi.height > src.height - roi.y) {
    return Status::OutOfRange("ROI exceeds image bounds");
  }
  FloatImage out;
  out.width = roi.width;
  out.height = roi.height;
  out.channels = src.channels;
  out.chw = src.chw;
  out.data.resize(static_cast<size_t>(roi.width) * roi.height * src.channels);
  if (src.chw) {
    const size_t src_plane = static_cast<size_t>(src.width) * src.height;
    const size_t dst_plane = static_cast<size_t>(roi.width) * roi.height;
    for (int c = 0; c < src.channels; ++c) {
      for (int y = 0; y < roi.height; ++y) {
        const float* s = src.data.data() + c * src_plane +
                         static_cast<size_t>(roi.y + y) * src.width + roi.x;
        float* d = out.data.data() + c * dst_plane +
                   static_cast<size_t>(y) * roi.width;
        std::copy(s, s + roi.width, d);
      }
    }
  } else {
    const int c = src.channels;
    for (int y = 0; y < roi.height; ++y) {
      const float* s = src.data.data() +
                       (static_cast<size_t>(roi.y + y) * src.width + roi.x) * c;
      float* d = out.data.data() + static_cast<size_t>(y) * roi.width * c;
      std::copy(s, s + static_cast<size_t>(roi.width) * c, d);
    }
  }
  return out;
}

}  // namespace smol
