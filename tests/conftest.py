import sys
from pathlib import Path

# The package sets its BLAS thread default on import, which only takes effect
# before numpy loads; import it first, as the `ecgphase` command does, so the
# suite runs the way the command runs.
import ecgphase

sys.path.insert(0, str(Path(__file__).parent))
