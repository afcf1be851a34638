"""Two-community network generation, link-analysis ranking, and
minority-representation diagnostics.

The package root holds only the version; import names from their modules.
"""

__version__ = "0.1.0"
