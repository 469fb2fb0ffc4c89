"""``python -m mwkit.cli``: run the command-line front end."""

from . import console_main

console_main()
