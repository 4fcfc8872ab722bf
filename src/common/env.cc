#include "common/env.h"

#include <cstdlib>
#include <cstring>

namespace jpar {

bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace jpar
