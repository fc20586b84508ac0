import sys
from pathlib import Path

# the test modules import the reference starts of lattice_reference.py,
# which sits beside them, under every pytest import mode
sys.path.insert(0, str(Path(__file__).parent))
