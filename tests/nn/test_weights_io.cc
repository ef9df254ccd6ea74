/**
 * @file
 * Weight-file I/O tests: raw16 round trip, float32 quantization,
 * and size validation.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "nn/reference.h"
#include "nn/weights_io.h"
#include "nn/zoo.h"

namespace isaac::nn {
namespace {

class WeightsIo : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // ctest runs each test as its own process, concurrently under
        // -j: give every test (and process) its own file.
        path = ::testing::TempDir() + "isaac_weights_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid());
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
    }

    std::string path;
};

TEST_F(WeightsIo, Raw16RoundTrips)
{
    const auto net = tinyCnn();
    const auto store = WeightStore::synthesize(net, 17);
    saveWeightsRaw16(store, net, path);
    const auto loaded = loadWeightsRaw16(net, path);
    for (std::size_t i = 0; i < net.size(); ++i)
        EXPECT_EQ(loaded.layer(i), store.layer(i)) << "layer " << i;
}

TEST_F(WeightsIo, Raw16RejectsWrongSize)
{
    const auto net = tinyCnn();
    {
        std::ofstream out(path, std::ios::binary);
        const Word w = 7;
        out.write(reinterpret_cast<const char *>(&w), sizeof(w));
    }
    EXPECT_THROW(loadWeightsRaw16(net, path), FatalError);
    EXPECT_THROW(loadWeightsRaw16(net, "/nonexistent/w.bin"),
                 FatalError);
}

TEST_F(WeightsIo, Float32QuantizesAndCountsSaturation)
{
    // A tiny fully connected network with hand-written floats.
    NetworkBuilder b("t", 1, 2, 2);
    b.fc(1, Activation::None);
    const auto net = b.build();

    const FixedFormat fmt{12}; // range ~[-8, 8)
    {
        std::ofstream out(path, std::ios::binary);
        const float values[4] = {0.5f, -1.25f, 100.0f, -0.125f};
        out.write(reinterpret_cast<const char *>(values),
                  sizeof(values));
    }
    std::int64_t saturated = -1;
    const auto store =
        loadWeightsFloat32(net, path, fmt, &saturated);
    EXPECT_EQ(saturated, 1); // the 100.0 clips
    const auto &w = store.layer(0);
    EXPECT_EQ(w[0], toFixed(0.5, fmt));
    EXPECT_EQ(w[1], toFixed(-1.25, fmt));
    EXPECT_EQ(w[2], 32767); // saturated
    EXPECT_EQ(w[3], toFixed(-0.125, fmt));
}

TEST_F(WeightsIo, LoadedWeightsDriveTheAcceleratorIdentically)
{
    // Saving and reloading must not change inference results.
    const auto net = tinyCnn();
    const auto store = WeightStore::synthesize(net, 23);
    saveWeightsRaw16(store, net, path);
    const auto loaded = loadWeightsRaw16(net, path);

    const FixedFormat fmt{12};
    ReferenceExecutor a(net, store, fmt);
    ReferenceExecutor b(net, loaded, fmt);
    const auto input = synthesizeInput(16, 12, 12, 3, fmt);
    EXPECT_EQ(a.run(input).raw(), b.run(input).raw());
}

} // namespace
} // namespace isaac::nn
