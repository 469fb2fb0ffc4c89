class InputError(ValueError):
    """Bad input to mwkit: the CLI prints one ``error:`` line and exits 1."""
