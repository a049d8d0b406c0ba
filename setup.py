import re
from pathlib import Path

from setuptools import find_packages, setup

# Single source of truth for the version: repro.__version__ (also what
# `repro --version` prints).  Parsed textually so building needs no deps.
_init = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__\s*=\s*"([^"]+)"', _init.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro-two-level-checkpointing",
    version=VERSION,
    description=(
        "Two-level checkpointing and verifications for linear task graphs "
        "(Benoit et al., PDSEC 2016): optimizers, analytic evaluator, and "
        "a vectorized fault-injection Monte-Carlo engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the strictly-typed core (repro.api, obs primitives,
    # service cache, devtools) ships inline types to downstream checkers.
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    # numpy >= 2: the batched kernel targets the array-API standard names
    # (np.bool / np.astype / np.concat) that NumPy only exposes from 2.0.
    # scipy: imported on first use, for Student-t critical values only.
    # repro.dag keeps its own workflow graph; networkx is a test-only
    # oracle (requirements-ci.txt).
    install_requires=["numpy>=2.0", "scipy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
            "repro-lint = repro.devtools.cli:main",
        ]
    },
)
