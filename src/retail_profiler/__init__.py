"""Target-fit KPIs and acquisition-strategy simulation for monthly demand profiles.

The package namespace holds only ``__version__``; import from the submodules.
"""

__version__ = "0.1.0"
