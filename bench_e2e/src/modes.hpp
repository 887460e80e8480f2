// The modes of the bench_e2e binary (see main.cpp).
#pragma once

#include "common.hpp"

namespace bench {

int run_prepare(const Args& args);
int run_ingest(const Args& args);

}  // namespace bench
