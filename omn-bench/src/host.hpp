#pragma once
// Host fingerprint recorded with every result, so timings are compared
// only between like hosts.

#include <string>

namespace omn::bench {

/// {"cpu_model", "nproc", "compiler", "build_type"} as one JSON line.
std::string host_fingerprint_json();

}  // namespace omn::bench
