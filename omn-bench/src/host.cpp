#include "host.hpp"

#include <fstream>
#include <thread>

#include "omn/util/json.hpp"

namespace omn::bench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string host_fingerprint_json() {
  util::Json host = util::Json::object();
  host.set("cpu_model", cpu_model());
  host.set("nproc",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  host.set("compiler", compiler());
  host.set("build_type", std::string(OMN_BENCH_BUILD_TYPE));
  return host.dump();
}

}  // namespace omn::bench
