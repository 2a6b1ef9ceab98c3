#ifndef STINDEX_IO_CSV_H_
#define STINDEX_IO_CSV_H_

#include <string>
#include <vector>

#include "core/segment.h"
#include "datagen/query_gen.h"
#include "trajectory/trajectory.h"
#include "util/status.h"

namespace stindex {

// Plain-text persistence for datasets, segment collections and query
// sets, so experiments are reproducible outside this process (and so the
// CLI can pipeline generate -> split -> index -> query).
//
// Formats (one record per line, '#' comments and blank lines ignored).
// Every number is finite: "nan" and "inf" are rejected. An object_id is
// a base-10 integer in [0, 2^32).
//
//  * Trajectories — one line per movement tuple:
//      object_id,t_start,t_end,cx,cy,ex,ey
//    where each polynomial field is its coefficients joined by ':'
//    (constant term first), e.g. "0.5:0.01" for 0.5 + 0.01 t. The degree
//    is at most Polynomial::kMaxDegree = 2: coefficients past t^2 must
//    be zero. Each tuple has t_start < t_end. One object's tuples are
//    contiguous lines, in time order, each starting where the previous
//    one ends; an id does not reappear after another object's tuples.
//
//  * Segments (an object may have several, on any lines):
//      object_id,t_start,t_end,xlo,ylo,xhi,yhi
//
//  * Queries:
//      t_start,t_end,xlo,ylo,xhi,yhi
//
// A reader's error Status names the file and line.

// Field-level parsers used by the readers below, exposed for direct use
// and testing. ParseDouble accepts every finite number strtod does —
// including denormals, which underflow to a subnormal without losing the
// value — and rejects syntax errors and non-finite values such as "nan"
// and "inf" (InvalidArgument) and genuine overflow to ±HUGE_VAL
// (OutOfRange). ParseTime parses a base-10 integer into Time with the
// same syntax/overflow split; ParseObjectId likewise, with OutOfRange
// for values outside [0, 2^32).
Status ParseDouble(const std::string& text, double* out);
Status ParseTime(const std::string& text, Time* out);
Status ParseObjectId(const std::string& text, ObjectId* out);

Status WriteTrajectoriesCsv(const std::string& path,
                            const std::vector<Trajectory>& objects);
Result<std::vector<Trajectory>> ReadTrajectoriesCsv(const std::string& path);

Status WriteSegmentsCsv(const std::string& path,
                        const std::vector<SegmentRecord>& records);
Result<std::vector<SegmentRecord>> ReadSegmentsCsv(const std::string& path);

Status WriteQueriesCsv(const std::string& path,
                       const std::vector<STQuery>& queries);
Result<std::vector<STQuery>> ReadQueriesCsv(const std::string& path);

}  // namespace stindex

#endif  // STINDEX_IO_CSV_H_
