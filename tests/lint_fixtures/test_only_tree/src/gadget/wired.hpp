// Fixture: the clean twin — a src/ header that a tool includes. No
// finding.
#pragma once

namespace fixture {

int wired_value();

}  // namespace fixture
