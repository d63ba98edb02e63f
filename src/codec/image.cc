#include "src/codec/image.h"

#include <cmath>

#include "src/util/macros.h"

namespace smol {

Result<Image> CropImage(const Image& src, const Roi& roi) {
  Image out;
  SMOL_RETURN_IF_ERROR(CropImageInto(src, roi, &out));
  return out;
}

Status CropImageInto(const Image& src, const Roi& roi, Image* out) {
  if (out == nullptr || out == &src) {
    return Status::InvalidArgument("bad crop destination");
  }
  if (roi.empty()) return Status::InvalidArgument("empty ROI");
  // Compared without forming roi.x + roi.width, which can overflow int.
  if (roi.x < 0 || roi.y < 0 || roi.width > src.width() - roi.x ||
      roi.height > src.height() - roi.y) {
    return Status::OutOfRange("ROI exceeds image bounds");
  }
  out->Reshape(roi.width, roi.height, src.channels());
  const size_t row_bytes = static_cast<size_t>(roi.width) * src.channels();
  for (int y = 0; y < roi.height; ++y) {
    const uint8_t* src_px =
        src.row(roi.y + y) + static_cast<size_t>(roi.x) * src.channels();
    std::memcpy(out->row(y), src_px, row_bytes);
  }
  return Status::OK();
}

Result<double> Psnr(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    return Status::InvalidArgument("PSNR requires same-shaped images");
  }
  if (a.size_bytes() == 0) return Status::InvalidArgument("empty images");
  double mse = 0.0;
  const uint8_t* pa = a.data();
  const uint8_t* pb = b.data();
  const size_t n = a.size_bytes();
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(n);
  if (mse <= 0.0) return 1e9;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

Result<double> MeanAbsDiff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.channels() != b.channels()) {
    return Status::InvalidArgument("MeanAbsDiff requires same-shaped images");
  }
  if (a.size_bytes() == 0) return Status::InvalidArgument("empty images");
  double sum = 0.0;
  const uint8_t* pa = a.data();
  const uint8_t* pb = b.data();
  const size_t n = a.size_bytes();
  for (size_t i = 0; i < n; ++i) {
    sum += std::abs(static_cast<double>(pa[i]) - static_cast<double>(pb[i]));
  }
  return sum / static_cast<double>(n);
}

}  // namespace smol
