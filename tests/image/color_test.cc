#include "image/color.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"

namespace walrus {
namespace {

TEST(Color, YccNeutralGray) {
  float y, cb, cr;
  RgbToYccPixel(0.5f, 0.5f, 0.5f, &y, &cb, &cr);
  EXPECT_NEAR(y, 0.5f, 1e-5f);
  EXPECT_NEAR(cb, 0.5f, 1e-5f);  // neutral chroma maps to 0.5
  EXPECT_NEAR(cr, 0.5f, 1e-5f);
}

TEST(Color, YccPureRedHasHighCr) {
  float y, cb, cr;
  RgbToYccPixel(1.0f, 0.0f, 0.0f, &y, &cb, &cr);
  EXPECT_NEAR(y, 0.299f, 1e-4f);
  EXPECT_GT(cr, 0.9f);
  EXPECT_LT(cb, 0.4f);
}

TEST(Color, YccRoundTripPixel) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    float r = rng.NextFloat(), g = rng.NextFloat(), b = rng.NextFloat();
    float y, cb, cr, r2, g2, b2;
    RgbToYccPixel(r, g, b, &y, &cb, &cr);
    YccToRgbPixel(y, cb, cr, &r2, &g2, &b2);
    EXPECT_NEAR(r2, r, 1e-3f);
    EXPECT_NEAR(g2, g, 1e-3f);
    EXPECT_NEAR(b2, b, 1e-3f);
  }
}

TEST(Color, YiqRoundTripPixel) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    float r = rng.NextFloat(), g = rng.NextFloat(), b = rng.NextFloat();
    float y, iq, q, r2, g2, b2;
    RgbToYiqPixel(r, g, b, &y, &iq, &q);
    EXPECT_GE(iq, 0.0f);
    EXPECT_LE(iq, 1.0f);
    YiqToRgbPixel(y, iq, q, &r2, &g2, &b2);
    EXPECT_NEAR(r2, r, 2e-3f);
    EXPECT_NEAR(g2, g, 2e-3f);
    EXPECT_NEAR(b2, b, 2e-3f);
  }
}

TEST(Color, HsvKnownValues) {
  float h, s, v;
  RgbToHsvPixel(1.0f, 0.0f, 0.0f, &h, &s, &v);  // pure red
  EXPECT_NEAR(h, 0.0f, 1e-5f);
  EXPECT_NEAR(s, 1.0f, 1e-5f);
  EXPECT_NEAR(v, 1.0f, 1e-5f);
  RgbToHsvPixel(0.0f, 1.0f, 0.0f, &h, &s, &v);  // pure green
  EXPECT_NEAR(h, 1.0f / 3.0f, 1e-5f);
  RgbToHsvPixel(0.3f, 0.3f, 0.3f, &h, &s, &v);  // gray: no saturation
  EXPECT_NEAR(s, 0.0f, 1e-5f);
  EXPECT_NEAR(v, 0.3f, 1e-5f);
}

TEST(Color, HsvRoundTripPixel) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    float r = rng.NextFloat(), g = rng.NextFloat(), b = rng.NextFloat();
    float h, s, v, r2, g2, b2;
    RgbToHsvPixel(r, g, b, &h, &s, &v);
    HsvToRgbPixel(h, s, v, &r2, &g2, &b2);
    EXPECT_NEAR(r2, r, 1e-4f);
    EXPECT_NEAR(g2, g, 1e-4f);
    EXPECT_NEAR(b2, b, 1e-4f);
  }
}

TEST(Color, ConvertImageRoundTrip) {
  Rng rng(4);
  ImageF rgb(8, 6, 3, ColorSpace::kRGB);
  for (int c = 0; c < 3; ++c) {
    for (float& p : rgb.Plane(c)) p = rng.NextFloat();
  }
  for (ColorSpace cs :
       {ColorSpace::kYCC, ColorSpace::kYIQ, ColorSpace::kHSV}) {
    Result<ImageF> converted = ConvertColorSpace(rgb, cs);
    ASSERT_TRUE(converted.ok());
    EXPECT_EQ(converted->color_space(), cs);
    Result<ImageF> back = ConvertColorSpace(*converted, ColorSpace::kRGB);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->AlmostEquals(rgb, 5e-3f)) << ColorSpaceName(cs);
  }
}

/// Per-pixel reference for a whole-image conversion: `fn` then Clamp.
template <typename PixelFn>
void ExpectConvertedBitEqual(const ImageF& in, const ImageF& out,
                             PixelFn fn) {
  ASSERT_EQ(out.width(), in.width());
  ASSERT_EQ(out.height(), in.height());
  ASSERT_EQ(out.channels(), 3);
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      float a, b, c;
      fn(in.At(0, x, y), in.At(1, x, y), in.At(2, x, y), &a, &b, &c);
      const float want[3] = {Clamp(a, 0.0f, 1.0f), Clamp(b, 0.0f, 1.0f),
                             Clamp(c, 0.0f, 1.0f)};
      for (int ch = 0; ch < 3; ++ch) {
        ASSERT_EQ(std::bit_cast<uint32_t>(out.At(ch, x, y)),
                  std::bit_cast<uint32_t>(want[ch]))
            << "pixel (" << x << "," << y << ") channel " << ch;
      }
    }
  }
}

TEST(Color, ConvertImageBitEqualsPerPixelConversion) {
  // Whole-image conversion is the per-pixel function plus Clamp, bit for
  // bit, including inputs outside [0,1] whose results clamp.
  Rng rng(5);
  ImageF rgb(13, 7, 3, ColorSpace::kRGB);
  for (int c = 0; c < 3; ++c) {
    for (float& p : rgb.Plane(c)) p = rng.NextFloat() * 1.6f - 0.3f;
  }
  rgb.SetPixel(0, 0, {0.0f, 0.0f, 0.0f});
  rgb.SetPixel(1, 0, {1.0f, 1.0f, 1.0f});
  rgb.SetPixel(2, 0, {-0.0f, 2.0f, -1.0f});
  ExpectConvertedBitEqual(rgb, ConvertColorSpace(rgb, ColorSpace::kYCC).value(),
                          RgbToYccPixel);
  ExpectConvertedBitEqual(rgb, ConvertColorSpace(rgb, ColorSpace::kYIQ).value(),
                          RgbToYiqPixel);
  ExpectConvertedBitEqual(rgb, ConvertColorSpace(rgb, ColorSpace::kHSV).value(),
                          RgbToHsvPixel);
  // Back to RGB from each space, on in-range and out-of-range samples.
  ImageF ycc = rgb;
  ycc.set_color_space(ColorSpace::kYCC);
  ExpectConvertedBitEqual(ycc, ConvertColorSpace(ycc, ColorSpace::kRGB).value(),
                          YccToRgbPixel);
  ImageF yiq = rgb;
  yiq.set_color_space(ColorSpace::kYIQ);
  ExpectConvertedBitEqual(yiq, ConvertColorSpace(yiq, ColorSpace::kRGB).value(),
                          YiqToRgbPixel);
}

TEST(Color, ConvertToGray) {
  ImageF rgb(2, 1, 3, ColorSpace::kRGB);
  rgb.SetPixel(0, 0, {1.0f, 1.0f, 1.0f});
  rgb.SetPixel(1, 0, {1.0f, 0.0f, 0.0f});
  Result<ImageF> gray = ConvertColorSpace(rgb, ColorSpace::kGray);
  ASSERT_TRUE(gray.ok());
  EXPECT_EQ(gray->channels(), 1);
  EXPECT_NEAR(gray->At(0, 0, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(gray->At(0, 1, 0), 0.299f, 1e-5f);
}

TEST(Color, GrayBackToRgbReplicates) {
  ImageF gray(1, 1, 1, ColorSpace::kGray);
  gray.At(0, 0, 0) = 0.6f;
  Result<ImageF> rgb = ConvertColorSpace(gray, ColorSpace::kRGB);
  ASSERT_TRUE(rgb.ok());
  EXPECT_EQ(rgb->channels(), 3);
  for (int c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(rgb->At(c, 0, 0), 0.6f);
}

TEST(Color, IdentityConversionIsNoOp) {
  ImageF rgb(2, 2, 3, ColorSpace::kRGB);
  rgb.Fill(0.3f);
  Result<ImageF> same = ConvertColorSpace(rgb, ColorSpace::kRGB);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->AlmostEquals(rgb));
}

TEST(Color, ShiftIntensityClamps) {
  ImageF img(2, 1, 3, ColorSpace::kRGB);
  img.SetPixel(0, 0, {0.9f, 0.5f, 0.1f});
  img.SetPixel(1, 0, {0.0f, 0.2f, 1.0f});
  ImageF shifted = ShiftIntensity(img, 0.3f);
  EXPECT_FLOAT_EQ(shifted.At(0, 0, 0), 1.0f);  // clamped
  EXPECT_FLOAT_EQ(shifted.At(1, 0, 0), 0.8f);
  EXPECT_FLOAT_EQ(shifted.At(2, 1, 0), 1.0f);
}

TEST(Color, YccIntensityShiftMovesOnlyLuma) {
  // Wavelet robustness to color shifts (section 3) relies on shifts living
  // mostly in the Y channel under YCC.
  ImageF rgb(1, 1, 3, ColorSpace::kRGB);
  rgb.SetPixel(0, 0, {0.4f, 0.5f, 0.6f});
  ImageF shifted = ShiftIntensity(rgb, 0.2f);
  ImageF ycc_a = ConvertColorSpace(rgb, ColorSpace::kYCC).value();
  ImageF ycc_b = ConvertColorSpace(shifted, ColorSpace::kYCC).value();
  EXPECT_NEAR(ycc_b.At(0, 0, 0) - ycc_a.At(0, 0, 0), 0.2f, 1e-3f);
  EXPECT_NEAR(ycc_b.At(1, 0, 0), ycc_a.At(1, 0, 0), 1e-3f);
  EXPECT_NEAR(ycc_b.At(2, 0, 0), ycc_a.At(2, 0, 0), 1e-3f);
}

}  // namespace
}  // namespace walrus
