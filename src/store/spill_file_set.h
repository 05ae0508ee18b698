// Compatibility header: perfbench includes it. The cold tier is one
// store::SpillFile; include store/spill_file.h directly.
#pragma once

#include "store/spill_file.h"
