// pa_perfbench: the compiled half of the repository benchmark. perfbench/run.py
// builds it, spawns `pa_serve`, and calls one of these subcommands:
//
//   pa_perfbench plan --workload W
//       Prints the SIMD table in use and the workload's `pa_serve publish`
//       arguments.
//   pa_perfbench serve --workload W --seed N --seconds S --port P
//                      --server-pid PID --store DIR [--trace-out F --scratch D]
//       Drives a running `pa_serve listen` and checks its answers; prints
//       one JSON result line on stdout.
#include <cstdio>
#include <string>

#include "common.h"
#include "tensor/kernels/kernels.h"

namespace {

int Plan(const perfbench::Flags& flags) {
  const std::string w = flags.Get("workload");
  std::printf("{\"simd\":\"%s\",\"publish\":[",
              pa::tensor::kernels::BestSimdTable().name);
  if (perfbench::PrintServePlan(w) != 0) {
    std::fprintf(stderr, "pa_perfbench: unknown workload \"%s\"\n", w.c_str());
    return 2;
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pa_perfbench plan|serve --flag value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const perfbench::Flags flags(argc, argv, 2);
  if (cmd == "plan") return Plan(flags);
  if (cmd == "serve") return perfbench::RunServe(flags);
  std::fprintf(stderr, "pa_perfbench: unknown subcommand \"%s\"\n", cmd.c_str());
  return 2;
}
