// Fixture: the orphan header's own implementation, which does not count
// as an includer.
#include "gadget/orphan.hpp"

namespace fixture {

int orphan_value() { return 1; }

}  // namespace fixture
