#ifndef KADOP_PERFBENCH_HOST_H_
#define KADOP_PERFBENCH_HOST_H_

#include <cstdint>
#include <vector>

namespace kadop::perfbench {

/// Host clock of the benchmark process: CPU time the process burned
/// (CLOCK_PROCESS_CPUTIME_ID), user plus system. The simulator is
/// single-threaded, so this equals wall time on an idle machine; unlike
/// wall time it does not count the time a shared machine's other tenants
/// held the CPU. The library never reads a host clock; every host-time
/// figure the benchmark reports comes from spans taken here, around its
/// own calls into the library.
class HostTimer {
 public:
  HostTimer() : start_(Now()) {}

  /// CPU seconds since construction.
  double Seconds() const { return Now() - start_; }

 private:
  static double Now();
  double start_;
};

/// Peak resident set size of this process so far, in MB (2^20 bytes).
double PeakRssMb();

/// Order-statistic percentile: the sample at rank ceil(q * n) (1-based),
/// so p99 of 1000 samples leaves exactly ten samples above it. 0 when
/// empty.
double Percentile(std::vector<double> values, double q);

}  // namespace kadop::perfbench

#endif  // KADOP_PERFBENCH_HOST_H_
