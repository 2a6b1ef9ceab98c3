#include "io/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

namespace stindex {
namespace {

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string FormatPolynomial(const Polynomial& poly) {
  std::string out;
  for (const double c : poly.coefficients()) {
    if (!out.empty()) out += ':';
    out += FormatDouble(c);
  }
  return out;
}

// Splits `line` on `delimiter`, keeping empty fields.
std::vector<std::string> SplitFields(const std::string& line,
                                     char delimiter) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, delimiter)) fields.push_back(field);
  if (!line.empty() && line.back() == delimiter) fields.push_back("");
  return fields;
}

// Parses a base-10 integer in [min, max]: InvalidArgument for a syntax
// error, OutOfRange for a value outside the range.
Status ParseInteger(const std::string& text, const char* what, long long min,
                    long long max, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument(std::string("malformed ") + what + ": '" +
                                   text + "'");
  }
  if (errno == ERANGE || value < min || value > max) {
    return Status::OutOfRange(std::string(what) + " out of range: '" + text +
                              "'");
  }
  *out = value;
  return Status::OK();
}

}  // namespace

Status ParseDouble(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed number: '" + text + "'");
  }
  // strtod sets ERANGE for subnormal underflow as well as overflow, but
  // only overflow (±HUGE_VAL) loses the value — denormals written with
  // %.17g must round-trip.
  if (errno == ERANGE && (*out == HUGE_VAL || *out == -HUGE_VAL)) {
    return Status::OutOfRange("number out of range: '" + text + "'");
  }
  // "inf" and "nan" parse, but no field may hold them.
  if (!std::isfinite(*out)) {
    return Status::InvalidArgument("non-finite number: '" + text + "'");
  }
  return Status::OK();
}

Status ParseTime(const std::string& text, Time* out) {
  long long value = 0;
  const Status status =
      ParseInteger(text, "time", std::numeric_limits<long long>::min(),
                   std::numeric_limits<long long>::max(), &value);
  if (status.ok()) *out = static_cast<Time>(value);
  return status;
}

Status ParseObjectId(const std::string& text, ObjectId* out) {
  long long value = 0;
  const Status status = ParseInteger(
      text, "object id", 0, std::numeric_limits<ObjectId>::max(), &value);
  if (status.ok()) *out = static_cast<ObjectId>(value);
  return status;
}

namespace {

// Parses polynomial field `name`: coefficients joined by ':', constant
// term first. Zeros past t^kMaxDegree are trimmed like any trailing zero;
// anything else there is InvalidArgument. Errors name the field.
Status ParsePolynomial(const char* name, const std::string& text,
                       Polynomial* out) {
  const std::vector<std::string> terms = SplitFields(text, ':');
  if (terms.empty()) {
    return Status::InvalidArgument(std::string(name) +
                                   ": empty polynomial field");
  }
  Polynomial::Coefficients coefficients{};
  for (size_t i = 0; i < terms.size(); ++i) {
    double value = 0.0;
    const Status status = ParseDouble(terms[i], &value);
    if (!status.ok()) {
      return Status(status.code(), std::string(name) + ": " + status.message());
    }
    if (i < coefficients.size()) {
      coefficients[i] = value;
    } else if (value != 0.0) {
      return Status::InvalidArgument(
          std::string(name) + ": '" + text + "' has a nonzero t^" +
          std::to_string(i) + " coefficient; the degree is at most " +
          std::to_string(Polynomial::kMaxDegree));
    }
  }
  *out = Polynomial(coefficients);
  return Status::OK();
}

// Iterates data lines of a CSV file, skipping comments/blanks. Calls
// `handler(line_number, line)`; stops at the first error.
template <typename Handler>
Status ForEachLine(const std::string& path, Handler&& handler) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string line;
  size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    Status status = handler(number, line);
    if (!status.ok()) {
      return Status(status.code(), path + ":" + std::to_string(number) +
                                       ": " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteTrajectoriesCsv(const std::string& path,
                            const std::vector<Trajectory>& objects) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out << "# object_id,t_start,t_end,cx,cy,ex,ey\n";
  for (const Trajectory& object : objects) {
    for (const MovementTuple& tuple : object.tuples()) {
      out << object.id() << ',' << tuple.interval.start << ','
          << tuple.interval.end << ',' << FormatPolynomial(tuple.center_x)
          << ',' << FormatPolynomial(tuple.center_y) << ','
          << FormatPolynomial(tuple.extent_x) << ','
          << FormatPolynomial(tuple.extent_y) << '\n';
    }
  }
  out.flush();
  if (!out) return Status::InvalidArgument("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::vector<Trajectory>> ReadTrajectoriesCsv(const std::string& path) {
  std::vector<Trajectory> objects;
  std::unordered_set<ObjectId> finished;  // objects before `current_id`
  ObjectId current_id = 0;
  std::vector<MovementTuple> current;

  auto finish = [&]() {
    if (current.empty()) return;
    finished.insert(current_id);
    objects.emplace_back(current_id, std::move(current));
    current.clear();
    STINDEX_DCHECK(objects.back().Validate().ok());
  };

  // Every tuple is checked as it is read, so an error names its own line.
  Status status = ForEachLine(
      path, [&](size_t, const std::string& line) -> Status {
        const std::vector<std::string> fields = SplitFields(line, ',');
        if (fields.size() != 7) {
          return Status::InvalidArgument("expected 7 fields");
        }
        ObjectId id = 0;
        Status parse = ParseObjectId(fields[0], &id);
        if (!parse.ok()) return parse;
        Time start = 0, end = 0;
        parse = ParseTime(fields[1], &start);
        if (!parse.ok()) return parse;
        parse = ParseTime(fields[2], &end);
        if (!parse.ok()) return parse;
        MovementTuple tuple;
        tuple.interval = TimeInterval(start, end);
        if (!tuple.interval.IsValid()) {
          return Status::InvalidArgument(
              "movement tuple has empty interval [" + fields[1] + ", " +
              fields[2] + ")");
        }
        parse = ParsePolynomial("cx", fields[3], &tuple.center_x);
        if (!parse.ok()) return parse;
        parse = ParsePolynomial("cy", fields[4], &tuple.center_y);
        if (!parse.ok()) return parse;
        parse = ParsePolynomial("ex", fields[5], &tuple.extent_x);
        if (!parse.ok()) return parse;
        parse = ParsePolynomial("ey", fields[6], &tuple.extent_y);
        if (!parse.ok()) return parse;

        if (current.empty() || id != current_id) {
          finish();
          if (finished.contains(id)) {
            return Status::InvalidArgument(
                "object " + fields[0] +
                " reappears after another object's tuples; an object's "
                "tuples must be contiguous");
          }
          current_id = id;
        } else if (start != current.back().interval.end) {
          return Status::InvalidArgument(
              "tuple of object " + fields[0] + " starts at " + fields[1] +
              " but its previous tuple ends at " +
              std::to_string(current.back().interval.end) +
              "; tuples must be contiguous in time");
        }
        current.push_back(tuple);
        return Status::OK();
      });
  if (!status.ok()) return status;
  finish();
  return objects;
}

Status WriteSegmentsCsv(const std::string& path,
                        const std::vector<SegmentRecord>& records) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out << "# object_id,t_start,t_end,xlo,ylo,xhi,yhi\n";
  for (const SegmentRecord& record : records) {
    out << record.object << ',' << record.box.interval.start << ','
        << record.box.interval.end << ',' << FormatDouble(record.box.rect.xlo)
        << ',' << FormatDouble(record.box.rect.ylo) << ','
        << FormatDouble(record.box.rect.xhi) << ','
        << FormatDouble(record.box.rect.yhi) << '\n';
  }
  out.flush();
  if (!out) return Status::InvalidArgument("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::vector<SegmentRecord>> ReadSegmentsCsv(const std::string& path) {
  std::vector<SegmentRecord> records;
  Status status = ForEachLine(
      path, [&](size_t, const std::string& line) -> Status {
        const std::vector<std::string> fields = SplitFields(line, ',');
        if (fields.size() != 7) {
          return Status::InvalidArgument("expected 7 fields");
        }
        SegmentRecord record;
        Status parse = ParseObjectId(fields[0], &record.object);
        if (!parse.ok()) return parse;
        Time start = 0, end = 0;
        parse = ParseTime(fields[1], &start);
        if (!parse.ok()) return parse;
        parse = ParseTime(fields[2], &end);
        if (!parse.ok()) return parse;
        record.box.interval = TimeInterval(start, end);
        double values[4];
        for (int i = 0; i < 4; ++i) {
          parse = ParseDouble(fields[static_cast<size_t>(i) + 3], &values[i]);
          if (!parse.ok()) return parse;
        }
        record.box.rect = Rect2D(values[0], values[1], values[2], values[3]);
        if (!record.box.IsValid()) {
          return Status::InvalidArgument("invalid segment box");
        }
        records.push_back(record);
        return Status::OK();
      });
  if (!status.ok()) return status;
  return records;
}

Status WriteQueriesCsv(const std::string& path,
                       const std::vector<STQuery>& queries) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out << "# t_start,t_end,xlo,ylo,xhi,yhi\n";
  for (const STQuery& query : queries) {
    out << query.range.start << ',' << query.range.end << ','
        << FormatDouble(query.area.xlo) << ',' << FormatDouble(query.area.ylo)
        << ',' << FormatDouble(query.area.xhi) << ','
        << FormatDouble(query.area.yhi) << '\n';
  }
  out.flush();
  if (!out) return Status::InvalidArgument("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::vector<STQuery>> ReadQueriesCsv(const std::string& path) {
  std::vector<STQuery> queries;
  Status status = ForEachLine(
      path, [&](size_t, const std::string& line) -> Status {
        const std::vector<std::string> fields = SplitFields(line, ',');
        if (fields.size() != 6) {
          return Status::InvalidArgument("expected 6 fields");
        }
        STQuery query;
        Time start = 0, end = 0;
        Status parse = ParseTime(fields[0], &start);
        if (!parse.ok()) return parse;
        parse = ParseTime(fields[1], &end);
        if (!parse.ok()) return parse;
        query.range = TimeInterval(start, end);
        double values[4];
        for (int i = 0; i < 4; ++i) {
          parse = ParseDouble(fields[static_cast<size_t>(i) + 2], &values[i]);
          if (!parse.ok()) return parse;
        }
        query.area = Rect2D(values[0], values[1], values[2], values[3]);
        if (!query.range.IsValid() || !query.area.IsValid()) {
          return Status::InvalidArgument("invalid query");
        }
        queries.push_back(query);
        return Status::OK();
      });
  if (!status.ok()) return status;
  return queries;
}

}  // namespace stindex
