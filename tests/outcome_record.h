// Cross-version outcome records: a test suite writes one line per outcome,
// in order, and each test's lines are compared with a record kept in
// tests/data/<name>.txt, taken from an earlier build whose outcomes are
// known good. A test fails when one of its lines differs, is missing or is
// extra. Running the whole binary without a filter writes what it observed
// to `<name>.observed` in the working directory, in the record's format:
// `<test>\t<line>` lines, grouped by test. The binary defines
// WARAN_TESTS_DIR (tests/CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace waran::outcomes {

class OutcomeRecord {
 public:
  /// The record of gtest suite `suite`, kept in tests/data/<name>.txt.
  OutcomeRecord(std::string suite, std::string name)
      : suite_(std::move(suite)), name_(std::move(name)) {
    std::ifstream in(std::string(WARAN_TESTS_DIR) + "/data/" + name_ + ".txt");
    std::string line;
    while (std::getline(in, line)) {
      const size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      recorded_[line.substr(0, tab)].push_back(line.substr(tab + 1));
    }
  }

  void add(const std::string& line) { observed_[current_test()].push_back(line); }

  /// Compares the running test's lines with the record, reporting the first
  /// few that differ (the observed file has the rest).
  void check_current_test() {
    const std::string test = current_test();
    const std::vector<std::string>& seen = observed_[test];
    const std::vector<std::string>& want = recorded_[test];
    const size_t common = std::min(seen.size(), want.size());
    size_t differing = 0;
    for (size_t i = 0; i < common; ++i) {
      if (seen[i] != want[i] && ++differing <= kReported) {
        ADD_FAILURE() << test << " line " << i << "\n  want: " << want[i]
                      << "\n  seen: " << seen[i];
      }
    }
    if (differing > kReported) ADD_FAILURE() << test << ": " << differing << " lines differ";
    for (size_t i = common; i < want.size() && i < common + kReported; ++i) {
      ADD_FAILURE() << test << ": missing line " << i << ": " << want[i];
    }
    for (size_t i = common; i < seen.size() && i < common + kReported; ++i) {
      ADD_FAILURE() << test << ": extra line " << i << ": " << seen[i];
    }
    if (seen.size() != want.size()) {
      ADD_FAILURE() << test << ": " << seen.size() << " lines, the record has "
                    << want.size();
    }
  }

  /// Fails on a recorded test the binary no longer has.
  void check_tests_exist() const {
    const ::testing::UnitTest& ut = *::testing::UnitTest::GetInstance();
    const ::testing::TestSuite* suite = nullptr;
    for (int i = 0; i < ut.total_test_suite_count(); ++i) {
      if (ut.GetTestSuite(i)->name() == suite_) suite = ut.GetTestSuite(i);
    }
    ASSERT_NE(suite, nullptr);
    for (const auto& [test, lines] : recorded_) {
      bool found = false;
      for (int j = 0; j < suite->total_test_count(); ++j) {
        found = found || test == suite->GetTestInfo(j)->name();
      }
      EXPECT_TRUE(found) << "record names a test this binary lacks: " << test;
    }
  }

  /// Writes every observed line when the whole binary ran.
  void write_observed() const {
    const ::testing::UnitTest& ut = *::testing::UnitTest::GetInstance();
    if (ut.test_to_run_count() != ut.total_test_count()) return;
    std::ofstream out(name_ + ".observed");
    for (const auto& [test, lines] : observed_) {
      for (const std::string& line : lines) out << test << "\t" << line << "\n";
    }
  }

 private:
  static constexpr size_t kReported = 8;

  static std::string current_test() {
    return ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  std::string suite_;
  std::string name_;
  std::map<std::string, std::vector<std::string>> recorded_;
  std::map<std::string, std::vector<std::string>> observed_;
};

/// Writes `record`'s observed file when the binary's tests are done.
class RecordWriter : public ::testing::Environment {
 public:
  explicit RecordWriter(const OutcomeRecord& record) : record_(record) {}
  void TearDown() override { record_.write_observed(); }

 private:
  const OutcomeRecord& record_;
};

}  // namespace waran::outcomes
