"""Exact-rational intersection theory for blown-up surfaces and cone threefolds."""

__version__ = "0.1.0"
