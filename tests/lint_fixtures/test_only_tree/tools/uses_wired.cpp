// Fixture: a tool that includes the wired header, wiring it into the
// program.
#include "gadget/wired.hpp"

int main() { return fixture::wired_value() == 2 ? 0 : 1; }
