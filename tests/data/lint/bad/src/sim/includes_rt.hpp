// Fixture: sim must never reach into the live runtime (rule `layering`).
#pragma once

#include "rt/session.hpp"
