#ifndef JPAR_COMMON_ENV_H_
#define JPAR_COMMON_ENV_H_

namespace jpar {

/// The one parse rule for jpar's boolean environment switches (the
/// JPAR_DISABLE_* kill-switches): unset, empty or "0" is off; any other
/// value is on. Reads the environment on every call; callers cache.
bool EnvFlagSet(const char* name);

}  // namespace jpar

#endif  // JPAR_COMMON_ENV_H_
