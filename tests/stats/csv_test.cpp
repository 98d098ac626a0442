#include "stats/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace dftmsn {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_all() {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  // ctest runs the cases in parallel, so each gets its own file.
  std::string path_ =
      ::testing::TempDir() + "csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row({1.0, 2.5});
    w.row({3.0, 4.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  EXPECT_EQ(read_all(), "a,b\n1,2.5\n3,4\n");
}

TEST_F(CsvTest, ArityMismatchThrows) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), std::invalid_argument);
  EXPECT_THROW(w.row({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST_F(CsvTest, EmptyColumnsThrow) {
  EXPECT_THROW(CsvWriter(path_, {}), std::invalid_argument);
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace dftmsn
