"""deltasieve: exact counts of square-free elliptic discriminants and the
complete-exponential-sum machinery behind their main-term constant."""

__version__ = "0.1.0"
