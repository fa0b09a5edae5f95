"""Heart-sound (PCG) classification toolkit.

Pipeline: ingest -> windows -> features -> nnet -> evaluate, with a
deterministic synthetic generator (synth) for desk-scale experiments and a
CLI (cli) wrapping it all.  Every name lives in its module and is imported
from there (`from pcgkit.nnet import train`); importing one module loads
only the modules it uses.
"""

__version__ = "0.12.0"
