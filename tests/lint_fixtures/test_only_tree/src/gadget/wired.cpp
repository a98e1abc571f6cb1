// Fixture: the wired header's own implementation.
#include "gadget/wired.hpp"

namespace fixture {

int wired_value() { return 2; }

}  // namespace fixture
