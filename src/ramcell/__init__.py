"""ramcell: planner and simulator for a robot-mounted UV-resin extrusion cell."""

__version__ = "0.1.0"


class RamcellError(Exception):
    """Base of every domain error; the CLI reports these with exit code 2."""
