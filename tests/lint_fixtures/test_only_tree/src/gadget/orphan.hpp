// Fixture: a src/ header that only its own .cpp includes (tests/ would be
// the only other reader). Expect exactly one `test-only-header` finding,
// on this file.
#pragma once

namespace fixture {

int orphan_value();

}  // namespace fixture
