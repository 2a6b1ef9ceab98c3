#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "datagen/query_gen.h"
#include "datagen/random_dataset.h"
#include "io/csv.h"
#include "temp_path.h"

namespace stindex {
namespace {

TEST(CsvTest, TrajectoriesRoundTrip) {
  RandomDatasetConfig config;
  config.num_objects = 60;
  config.changing_extents = true;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);

  const TempPath path("objects.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, objects).ok());
  Result<std::vector<Trajectory>> read = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const std::vector<Trajectory>& loaded = read.value();
  ASSERT_EQ(loaded.size(), objects.size());
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(loaded[i].id(), objects[i].id());
    EXPECT_EQ(loaded[i].Lifetime(), objects[i].Lifetime());
    ASSERT_EQ(loaded[i].tuples().size(), objects[i].tuples().size());
    // Exact round trip (printed with %.17g).
    const TimeInterval life = objects[i].Lifetime();
    for (Time t = life.start; t < life.end; ++t) {
      EXPECT_EQ(loaded[i].RectAt(t), objects[i].RectAt(t));
    }
  }
}

TEST(CsvTest, SegmentsRoundTrip) {
  RandomDatasetConfig config;
  config.num_objects = 40;
  const std::vector<Trajectory> objects = GenerateRandomDataset(config);
  std::vector<SegmentRecord> records;
  for (const Trajectory& object : objects) {
    SegmentRecord record;
    record.object = object.id();
    record.box = object.FullBox();
    records.push_back(record);
  }
  const TempPath path("segments.csv");
  ASSERT_TRUE(WriteSegmentsCsv(path, records).ok());
  Result<std::vector<SegmentRecord>> read = ReadSegmentsCsv(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(read.value()[i].object, records[i].object);
    EXPECT_EQ(read.value()[i].box, records[i].box);
  }
}

TEST(CsvTest, QueriesRoundTrip) {
  const std::vector<STQuery> queries = GenerateQuerySet(SmallRangeSet());
  const TempPath path("queries.csv");
  ASSERT_TRUE(WriteQueriesCsv(path, queries).ok());
  Result<std::vector<STQuery>> read = ReadQueriesCsv(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(read.value()[i].area, queries[i].area);
    EXPECT_EQ(read.value()[i].range, queries[i].range);
  }
}

TEST(CsvTest, MissingFileIsNotFound) {
  Result<std::vector<Trajectory>> read =
      ReadTrajectoriesCsv(TempPath("nope.csv"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, MalformedLineReportsLineNumber) {
  const TempPath path("bad.csv");
  {
    std::ofstream out(path);
    out << "# header\n";
    out << "0,0,10,0.5,0.5,0.01,0.01\n";
    out << "1,banana,10,0.5,0.5,0.01,0.01\n";
  }
  Result<std::vector<Trajectory>> read = ReadTrajectoriesCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find(":3:"), std::string::npos)
      << read.status().ToString();
}

TEST(CsvTest, WrongFieldCountRejected) {
  const TempPath path("short.csv");
  {
    std::ofstream out(path);
    out << "0,0,10,0.5\n";
  }
  EXPECT_FALSE(ReadTrajectoriesCsv(path).ok());
  EXPECT_FALSE(ReadSegmentsCsv(path).ok());
}

TEST(CsvTest, NonContiguousTuplesRejected) {
  const TempPath path("gap.csv");
  {
    std::ofstream out(path);
    out << "0,0,10,0.5,0.5,0.01,0.01\n";
    out << "0,12,20,0.5,0.5,0.01,0.01\n";  // gap 10..12
  }
  Result<std::vector<Trajectory>> read = ReadTrajectoriesCsv(path);
  EXPECT_FALSE(read.ok());
}

TEST(CsvTest, ParseDoubleRoundTripsExtremeValues) {
  // Values written with %.17g must parse back bit-exact, including
  // denormals (strtod flags their underflow with ERANGE, which must not
  // be treated as an error) and the largest finite doubles.
  const double extremes[] = {
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4,  // subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      0.0,
      -1.5e-300,
  };
  for (const double value : extremes) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    double parsed = 0.0;
    const Status status = ParseDouble(text, &parsed);
    ASSERT_TRUE(status.ok()) << text << ": " << status.ToString();
    EXPECT_EQ(parsed, value) << text;
  }
}

TEST(CsvTest, ParseDoubleRejectsOnlyOverflow) {
  double parsed = 0.0;
  // Overflow to +/-HUGE_VAL is OutOfRange...
  Status status = ParseDouble("1e999", &parsed);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  status = ParseDouble("-1e999", &parsed);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  // ...while underflow toward zero is accepted.
  EXPECT_TRUE(ParseDouble("1e-999", &parsed).ok());
  EXPECT_EQ(parsed, 0.0);
  // Syntax errors stay InvalidArgument.
  for (const char* bad : {"", "banana", "1.5x", "1.5 ", " 1.5e"}) {
    status = ParseDouble(bad, &parsed);
    ASSERT_FALSE(status.ok()) << "'" << bad << "'";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  // strtod spells out infinities and NaNs, but no field may hold one.
  for (const char* bad : {"nan", "-nan", "NAN", "nan(0x1)", "inf", "-inf",
                          "Infinity", "-INFINITY"}) {
    status = ParseDouble(bad, &parsed);
    ASSERT_FALSE(status.ok()) << "'" << bad << "'";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(CsvTest, ParseTimeRejectsGarbageAndOverflow) {
  Time parsed = 0;
  EXPECT_TRUE(ParseTime("42", &parsed).ok());
  EXPECT_EQ(parsed, 42);
  EXPECT_TRUE(ParseTime("-7", &parsed).ok());
  EXPECT_EQ(parsed, -7);
  Status status = ParseTime("99999999999999999999", &parsed);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  for (const char* bad : {"", "4.5", "ten", "7 "}) {
    status = ParseTime(bad, &parsed);
    ASSERT_FALSE(status.ok()) << "'" << bad << "'";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(CsvTest, DenormalExtentsRoundTripThroughSegmentsCsv) {
  SegmentRecord record;
  record.object = 9;
  record.box.interval = TimeInterval(0, 5);
  record.box.rect = Rect2D(std::numeric_limits<double>::denorm_min(), 0.25,
                           0.5, std::numeric_limits<double>::max());
  const TempPath path("denormal.csv");
  ASSERT_TRUE(WriteSegmentsCsv(path, {record}).ok());
  Result<std::vector<SegmentRecord>> read = ReadSegmentsCsv(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(read.value()[0].box, record.box);
}

TEST(CsvTest, TrailingDelimiterRejected) {
  // A trailing comma produces an empty final field, which must be a
  // parse error rather than a silently dropped or zeroed column.
  const TempPath path("trailing.csv");
  {
    std::ofstream out(path);
    out << "0,0,10,0.1,0.2,0.3,0.4,\n";
  }
  EXPECT_FALSE(ReadSegmentsCsv(path).ok());
  Result<std::vector<STQuery>> queries = ReadQueriesCsv(path);
  EXPECT_FALSE(queries.ok());
}

TEST(CsvTest, CommentsAndBlankLinesIgnored) {
  const TempPath path("comments.csv");
  {
    std::ofstream out(path);
    out << "# a comment\n\n";
    out << "5,3,9,0.1:0.01,0.2,0.05,0.05\n";
    out << "\n# trailing comment\n";
  }
  Result<std::vector<Trajectory>> read = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().size(), 1u);
  EXPECT_EQ(read.value()[0].id(), 5u);
  EXPECT_EQ(read.value()[0].tuples()[0].center_x, Polynomial({0.1, 0.01}));
}


// Writes `lines` (no trailing newline needed) to `path`.
void WriteLines(const TempPath& path,
                std::initializer_list<const char*> lines) {
  std::ofstream out(path.path());
  for (const char* line : lines) out << line << '\n';
}

// Expects `status` to fail with `code` and a message that contains each
// of `parts`.
void ExpectError(const Status& status, StatusCode code,
                 std::initializer_list<std::string> parts) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), code) << status.ToString();
  for (const std::string& part : parts) {
    EXPECT_NE(status.message().find(part), std::string::npos)
        << "'" << part << "' missing from " << status.ToString();
  }
}

TEST(CsvTest, NonFiniteNumbersRejected) {
  const TempPath objects("nan_coefficient.csv");
  WriteLines(objects, {"0,0,5,nan,0.5,0.01,0.01"});
  ExpectError(ReadTrajectoriesCsv(objects).status(),
              StatusCode::kInvalidArgument, {objects.path() + ":1:", "nan"});
  const TempPath segments("inf_segment.csv");
  WriteLines(segments, {"0,0,5,0.1,0.1,0.2,0.2", "1,0,5,0.1,0.1,inf,0.2"});
  ExpectError(ReadSegmentsCsv(segments).status(),
              StatusCode::kInvalidArgument, {segments.path() + ":2:", "inf"});
  const TempPath queries("inf_query.csv");
  WriteLines(queries, {"0,5,-inf,0.1,0.2,0.2"});
  ExpectError(ReadQueriesCsv(queries).status(), StatusCode::kInvalidArgument,
              {queries.path() + ":1:", "inf"});
}

TEST(CsvTest, ObjectIdsOutsideTheirRangeRejected) {
  const struct {
    const char* id;
    StatusCode code;
  } cases[] = {{"abc", StatusCode::kInvalidArgument},
               {"", StatusCode::kInvalidArgument},
               {"7x", StatusCode::kInvalidArgument},
               {"-1", StatusCode::kOutOfRange},
               {"4294967296", StatusCode::kOutOfRange},
               {"99999999999999999999", StatusCode::kOutOfRange}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("id '") + c.id + "'");
    const std::string line = std::string(c.id) + ",0,5,0.1,0.1,0.2,0.2";
    const TempPath path("bad_id.csv");
    WriteLines(path, {line.c_str()});
    ExpectError(ReadTrajectoriesCsv(path).status(), c.code,
                {path.path() + ":1:", "object id"});
    ExpectError(ReadSegmentsCsv(path).status(), c.code,
                {path.path() + ":1:", "object id"});
  }
  // The largest id still loads, in both kinds of file.
  const TempPath path("max_id.csv");
  WriteLines(path, {"4294967295,0,5,0.1,0.1,0.2,0.2"});
  Result<std::vector<Trajectory>> objects = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  EXPECT_EQ(objects.value()[0].id(), 4294967295u);
  Result<std::vector<SegmentRecord>> segments = ReadSegmentsCsv(path);
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  EXPECT_EQ(segments.value()[0].object, 4294967295u);
}

TEST(CsvTest, ObjectWhoseTuplesAreNotContiguousRejected) {
  const TempPath path("reappearing.csv");
  WriteLines(path,
             {"0,0,5,0.1,0.1,0.01,0.01", "1,0,5,0.2,0.2,0.01,0.01",
              "0,5,9,0.1,0.1,0.01,0.01"});
  ExpectError(ReadTrajectoriesCsv(path).status(),
              StatusCode::kInvalidArgument, {path.path() + ":3:", "object 0"});
}

TEST(CsvTest, TimeGapIsReportedAtItsOwnLine) {
  // The gap is on line 3, followed by another object.
  const TempPath middle("gap_middle.csv");
  WriteLines(middle,
             {"# header", "0,0,10,0.5,0.5,0.01,0.01",
              "0,12,20,0.5,0.5,0.01,0.01", "1,0,5,0.5,0.5,0.01,0.01"});
  ExpectError(ReadTrajectoriesCsv(middle).status(),
              StatusCode::kInvalidArgument,
              {middle.path() + ":3:", "contiguous"});
  // The gap is in the file's last object.
  const TempPath last("gap_last.csv");
  WriteLines(last,
             {"0,0,10,0.5,0.5,0.01,0.01", "1,0,10,0.5,0.5,0.01,0.01",
              "1,10,20,0.5,0.5,0.01,0.01", "1,21,30,0.5,0.5,0.01,0.01"});
  ExpectError(ReadTrajectoriesCsv(last).status(),
              StatusCode::kInvalidArgument,
              {last.path() + ":4:", "contiguous"});
  // So is an empty interval.
  const TempPath empty("empty_interval.csv");
  WriteLines(empty, {"0,0,10,0.5,0.5,0.01,0.01", "0,10,10,0.5,0.5,0.01,0.01"});
  ExpectError(ReadTrajectoriesCsv(empty).status(),
              StatusCode::kInvalidArgument, {empty.path() + ":2:", "empty"});
}

TEST(CsvTest, PolynomialDegreeAboveTwoRejected) {
  const TempPath path("cubic.csv");
  WriteLines(path,
             {"0,0,10,0.5:0.01,0.5,0.01,0.01",
              "0,10,20,0.5,0.5:0:0:1e-9,0.01,0.01"});
  ExpectError(ReadTrajectoriesCsv(path).status(),
              StatusCode::kInvalidArgument, {path.path() + ":2:", "cy", "t^3"});
  // Zeros past t^2 are trimmed like any trailing zero.
  const TempPath zeros("trailing_zeros.csv");
  WriteLines(zeros, {"3,0,10,0.5:0.01:0:0,0.5,0.01,0.01"});
  Result<std::vector<Trajectory>> read = ReadTrajectoriesCsv(zeros);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Polynomial& cx = read.value()[0].tuples()[0].center_x;
  EXPECT_EQ(cx.Degree(), 1);
  EXPECT_EQ(cx, Polynomial::Linear(0.5, 0.01));
}

}  // namespace
}  // namespace stindex
