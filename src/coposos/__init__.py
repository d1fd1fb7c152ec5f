"""coposos: sum-of-squares relaxations of copositive programs.

Library layout:

- :mod:`coposos.polycore`   exact multi-index / polynomial arithmetic
- :mod:`coposos.sdpcore`    block SDP model and interior-point solver
- :mod:`coposos.cones`      cone membership tests and SoS certificates
- :mod:`coposos.relax`      conic-program relaxation assembly and solving
- :mod:`coposos.apps`       quadratic-program, stability and chromatic bounds
"""

__version__ = "0.1.0"
