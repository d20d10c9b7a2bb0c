// Custom gtest entry point: the crash-churn tests respawn THIS binary as
// the journaled server (`--serve 0 --once --journal DIR --port-file PATH`,
// fork + execl of /proc/self/exe), so `--serve` must reach the serve loop
// before gtest ever parses argv.
#include <gtest/gtest.h>

#include <cstring>

#include "server/deployment.hpp"

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve") == 0)
    return eyw::server::serve_main(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
