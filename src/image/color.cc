#include "image/color.h"

#include <cmath>

#include "common/math_util.h"
#include "common/status.h"

namespace walrus {

void RgbToYccPixel(float r, float g, float b, float* y, float* cb, float* cr) {
  *y = 0.299f * r + 0.587f * g + 0.114f * b;
  *cb = -0.168736f * r - 0.331264f * g + 0.5f * b + 0.5f;
  *cr = 0.5f * r - 0.418688f * g - 0.081312f * b + 0.5f;
}

void YccToRgbPixel(float y, float cb, float cr, float* r, float* g, float* b) {
  float cb0 = cb - 0.5f;
  float cr0 = cr - 0.5f;
  *r = y + 1.402f * cr0;
  *g = y - 0.344136f * cb0 - 0.714136f * cr0;
  *b = y + 1.772f * cb0;
}

void RgbToYiqPixel(float r, float g, float b, float* y, float* i, float* q) {
  float iraw = 0.595716f * r - 0.274453f * g - 0.321263f * b;  // [-0.5957, 0.5957]
  float qraw = 0.211456f * r - 0.522591f * g + 0.311135f * b;  // [-0.5226, 0.5226]
  *y = 0.299f * r + 0.587f * g + 0.114f * b;
  *i = iraw / (2.0f * 0.595716f) + 0.5f;
  *q = qraw / (2.0f * 0.522591f) + 0.5f;
}

void YiqToRgbPixel(float y, float i, float q, float* r, float* g, float* b) {
  float iraw = (i - 0.5f) * 2.0f * 0.595716f;
  float qraw = (q - 0.5f) * 2.0f * 0.522591f;
  *r = y + 0.9563f * iraw + 0.6210f * qraw;
  *g = y - 0.2721f * iraw - 0.6474f * qraw;
  *b = y - 1.1070f * iraw + 1.7046f * qraw;
}

void RgbToHsvPixel(float r, float g, float b, float* h, float* s, float* v) {
  float maxc = std::fmax(r, std::fmax(g, b));
  float minc = std::fmin(r, std::fmin(g, b));
  float delta = maxc - minc;
  *v = maxc;
  *s = maxc > 0.0f ? delta / maxc : 0.0f;
  if (delta <= 0.0f) {
    *h = 0.0f;
    return;
  }
  float hue;
  if (maxc == r) {
    hue = std::fmod((g - b) / delta, 6.0f);
  } else if (maxc == g) {
    hue = (b - r) / delta + 2.0f;
  } else {
    hue = (r - g) / delta + 4.0f;
  }
  hue /= 6.0f;
  if (hue < 0.0f) hue += 1.0f;
  *h = hue;
}

void HsvToRgbPixel(float h, float s, float v, float* r, float* g, float* b) {
  float hh = h * 6.0f;
  int sector = static_cast<int>(hh) % 6;
  if (sector < 0) sector += 6;
  float f = hh - std::floor(hh);
  float p = v * (1.0f - s);
  float q = v * (1.0f - s * f);
  float t = v * (1.0f - s * (1.0f - f));
  switch (sector) {
    case 0: *r = v; *g = t; *b = p; break;
    case 1: *r = q; *g = v; *b = p; break;
    case 2: *r = p; *g = v; *b = t; break;
    case 3: *r = p; *g = q; *b = v; break;
    case 4: *r = t; *g = p; *b = v; break;
    default: *r = v; *g = p; *b = q; break;
  }
}

namespace {

using PixelConverter = void (*)(float, float, float, float*, float*, float*);

/// Converts every pixel of a 3-channel image with `Fn` (a template argument,
/// so the call inlines) and clamps the results to [0,1], reading and writing
/// whole planes.
template <PixelConverter Fn>
ImageF ConvertWith(const ImageF& in, ColorSpace target) {
  ImageF out(in.width(), in.height(), 3, target);
  const float* in0 = in.Plane(0).data();
  const float* in1 = in.Plane(1).data();
  const float* in2 = in.Plane(2).data();
  float* out0 = out.Plane(0).data();
  float* out1 = out.Plane(1).data();
  float* out2 = out.Plane(2).data();
  const size_t n = static_cast<size_t>(in.PixelCount());
  for (size_t i = 0; i < n; ++i) {
    float a, b, c;
    Fn(in0[i], in1[i], in2[i], &a, &b, &c);
    out0[i] = Clamp(a, 0.0f, 1.0f);
    out1[i] = Clamp(b, 0.0f, 1.0f);
    out2[i] = Clamp(c, 0.0f, 1.0f);
  }
  return out;
}

Result<ImageF> ToRgb(const ImageF& image) {
  switch (image.color_space()) {
    case ColorSpace::kRGB:
      return image;
    case ColorSpace::kYCC:
      return ConvertWith<&YccToRgbPixel>(image, ColorSpace::kRGB);
    case ColorSpace::kYIQ:
      return ConvertWith<&YiqToRgbPixel>(image, ColorSpace::kRGB);
    case ColorSpace::kHSV:
      return ConvertWith<&HsvToRgbPixel>(image, ColorSpace::kRGB);
    case ColorSpace::kGray: {
      ImageF out(image.width(), image.height(), 3, ColorSpace::kRGB);
      for (int y = 0; y < image.height(); ++y) {
        for (int x = 0; x < image.width(); ++x) {
          float v = image.At(0, x, y);
          out.At(0, x, y) = v;
          out.At(1, x, y) = v;
          out.At(2, x, y) = v;
        }
      }
      return out;
    }
  }
  return Status::InvalidArgument("unknown source color space");
}

}  // namespace

Result<ImageF> ConvertColorSpace(const ImageF& image, ColorSpace target) {
  if (image.color_space() == target) return image;
  if (image.channels() != 3 && image.color_space() != ColorSpace::kGray) {
    return Status::InvalidArgument(
        "color conversion requires a 3-channel image");
  }
  // An RGB source is read in place; other spaces go through RGB first.
  ImageF converted_rgb;
  if (image.color_space() != ColorSpace::kRGB) {
    WALRUS_ASSIGN_OR_RETURN(converted_rgb, ToRgb(image));
  }
  const ImageF& rgb =
      image.color_space() == ColorSpace::kRGB ? image : converted_rgb;
  switch (target) {
    case ColorSpace::kRGB:
      return converted_rgb;  // the source is not RGB (checked above)
    case ColorSpace::kYCC:
      return ConvertWith<&RgbToYccPixel>(rgb, ColorSpace::kYCC);
    case ColorSpace::kYIQ:
      return ConvertWith<&RgbToYiqPixel>(rgb, ColorSpace::kYIQ);
    case ColorSpace::kHSV:
      return ConvertWith<&RgbToHsvPixel>(rgb, ColorSpace::kHSV);
    case ColorSpace::kGray: {
      ImageF out(rgb.width(), rgb.height(), 1, ColorSpace::kGray);
      for (int y = 0; y < rgb.height(); ++y) {
        for (int x = 0; x < rgb.width(); ++x) {
          out.At(0, x, y) = 0.299f * rgb.At(0, x, y) +
                            0.587f * rgb.At(1, x, y) +
                            0.114f * rgb.At(2, x, y);
        }
      }
      return out;
    }
  }
  return Status::InvalidArgument("unknown target color space");
}

ImageF ShiftIntensity(const ImageF& image, float delta) {
  ImageF out = image;
  for (int c = 0; c < out.channels(); ++c) {
    for (float& v : out.Plane(c)) v = Clamp(v + delta, 0.0f, 1.0f);
  }
  return out;
}

}  // namespace walrus
