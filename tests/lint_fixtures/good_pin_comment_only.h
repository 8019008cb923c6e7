// Fixture: a file that names EpochManager only in this comment, next to
// a SMQ_REQUIRES_PIN function called `find` — an ordinary
// std::string::find call below is not an unpinned node dereference, so
// the [pin] rule must stay off and the file must lint clean.
#pragma once

#include <string>

#define SMQ_REQUIRES_PIN

namespace fixture {

struct Index {
  int* find(unsigned key) SMQ_REQUIRES_PIN;
};

inline bool has_separator(const std::string& spec) {
  return spec.find('=') != std::string::npos;
}

}  // namespace fixture
