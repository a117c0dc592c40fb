/**
 * @file
 * Unit tests for the figure-of-merit comparison (paper Section
 * 3.3.1): sorted pairwise comparison with a significance threshold,
 * sum as the final tie-break.
 */

#include <gtest/gtest.h>

#include "sched/fom.hh"

using namespace gpsched;

namespace
{

FigureOfMerit
make(std::initializer_list<double> components)
{
    FigureOfMerit fom;
    for (double c : components)
        fom.addComponent(c);
    return fom;
}

} // namespace

TEST(Fom, Accessors)
{
    FigureOfMerit fom = make({10.0, 50.0, 20.0});
    EXPECT_EQ(fom.size(), 3u);
    EXPECT_DOUBLE_EQ(fom.sum(), 80.0);
    EXPECT_DOUBLE_EQ(fom.maxComponent(), 50.0);
}

TEST(Fom, HighestComponentDecides)
{
    // a's worst resource (60) is better than b's (90).
    FigureOfMerit a = make({60.0, 10.0});
    FigureOfMerit b = make({90.0, 0.0});
    EXPECT_TRUE(FigureOfMerit::better(a, b, 10.0));
    EXPECT_FALSE(FigureOfMerit::better(b, a, 10.0));
}

TEST(Fom, ComparisonIsOrderIndependent)
{
    // Components are sorted before comparing, so their positions in
    // the vector must not matter.
    FigureOfMerit a = make({10.0, 60.0});
    FigureOfMerit b = make({90.0, 0.0});
    EXPECT_TRUE(FigureOfMerit::better(a, b, 10.0));
}

TEST(Fom, SimilarHeadsFallThroughToNextComponent)
{
    // Heads 80 vs 85 are within the 10-point threshold; the second
    // components 70 vs 20 decide.
    FigureOfMerit a = make({80.0, 20.0});
    FigureOfMerit b = make({85.0, 70.0});
    EXPECT_TRUE(FigureOfMerit::better(a, b, 10.0));
    EXPECT_FALSE(FigureOfMerit::better(b, a, 10.0));
}

TEST(Fom, AllSimilarFallsBackToSum)
{
    FigureOfMerit a = make({50.0, 42.0});
    FigureOfMerit b = make({55.0, 45.0});
    EXPECT_TRUE(FigureOfMerit::better(a, b, 10.0));
    EXPECT_FALSE(FigureOfMerit::better(b, a, 10.0));
}

TEST(Fom, EqualFiguresAreNotBetter)
{
    FigureOfMerit a = make({30.0, 30.0});
    FigureOfMerit b = make({30.0, 30.0});
    EXPECT_FALSE(FigureOfMerit::better(a, b, 10.0));
    EXPECT_FALSE(FigureOfMerit::better(b, a, 10.0));
}

TEST(Fom, ZeroThresholdIsLexicographic)
{
    FigureOfMerit a = make({50.0, 10.0});
    FigureOfMerit b = make({50.1, 0.0});
    EXPECT_TRUE(FigureOfMerit::better(a, b, 0.0));
}

TEST(Fom, ThresholdWidensTolerance)
{
    FigureOfMerit a = make({50.0, 10.0});
    FigureOfMerit b = make({58.0, 0.0});
    // With threshold 10 the heads tie and the sum decides (58 < 60).
    EXPECT_TRUE(FigureOfMerit::better(b, a, 10.0));
    // With threshold 5 the head decides for a.
    EXPECT_TRUE(FigureOfMerit::better(a, b, 5.0));
}

TEST(Fom, BenefitTheWeakestPhilosophy)
{
    // The paper's example: prefer the schedule that leaves the most
    // used resource less used, even if it consumes more in total.
    FigureOfMerit balanced = make({55.0, 50.0, 45.0});
    FigureOfMerit skewed = make({95.0, 5.0, 5.0});
    EXPECT_TRUE(FigureOfMerit::better(balanced, skewed, 10.0));
}

using FomDeathTest = ::testing::Test;

TEST(FomDeathTest, ArityMismatchPanics)
{
    FigureOfMerit a = make({1.0});
    FigureOfMerit b = make({1.0, 2.0});
    EXPECT_DEATH(FigureOfMerit::better(a, b, 10.0), "");
}

TEST(FomDeathTest, NegativeComponentPanics)
{
    FigureOfMerit fom;
    EXPECT_DEATH(fom.addComponent(-1.0), "");
}
