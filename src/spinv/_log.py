"""DEBUG records that cost no import where no application set up logging."""

import sys


def debug(name: str, msg: str, *args):
    """A DEBUG record on logging.getLogger(name), usually the caller's __name__.

    A record is seen only through handlers that an application configures,
    which imports logging first. Where nothing has imported it (the spinv
    commands that load no scipy), no record could be seen, and the 3-5 ms
    import of logging at each start is skipped.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(msg, *args)
