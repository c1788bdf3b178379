__version__ = "0.2.5"
