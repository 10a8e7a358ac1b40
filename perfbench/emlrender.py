"""Render calibrated corpus messages to deterministic RFC-822 bytes.

``repro serve`` ingests raw ``.eml`` bytes, so the serve workload needs
the calibrated corpus in that form.  The rendering is a pure function
of the message: multipart boundaries are numbered, not random, and
binary payloads are serialised without timestamps, so the same corpus
always yields the same bytes (and therefore the same verdict records).

What is carried, and how :func:`repro.mail.ingest.ingest_eml_bytes`
reads it back:

- ``From``/``To``/``Subject``, and ``Date`` from ``delivered_at`` (hours
  since the 2024-01-01 UTC study epoch, to the second);
- ``Return-Path`` (the sending domain), a ``Received`` header carrying
  the sending IP in brackets, and ``DKIM-Signature`` when signed;
- text and HTML parts, base64 transfer encoding kept where the part
  has it (it is one of the paper's message-level evasions);
- nested ``message/rfc822`` parts, recursively;
- every binary (images, PDFs, archives, typed blobs) as
  ``application/octet-stream`` whose bytes start with the type's magic
  number, so the parser's sniffing sees what a real daemon would.
"""

from __future__ import annotations

import base64
import email.generator
import email.header
import email.message
import email.policy
import email.utils
import io
import struct
import zipfile
import zlib
from datetime import datetime, timedelta, timezone

from repro.imaging.image import Image
from repro.mail.attachments import ArchiveFile, FileBlob, HtaFile
from repro.mail.message import ContentType, EmailMessage, MessagePart
from repro.pdfdoc.document import PDF_MAGIC, PdfDocument

EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)
PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
#: Fixed archive member timestamp (zipfile's minimum), for stable bytes.
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)


def render_eml(message: EmailMessage) -> bytes:
    """The message as RFC-822 bytes (LF line endings, as .eml files on disk)."""
    out = io.BytesIO()
    generator = email.generator.BytesGenerator(
        out, mangle_from_=False, policy=email.policy.compat32
    )
    generator.flatten(_build(message, [0]))
    return out.getvalue()


def _build(message: EmailMessage, counter: list[int]) -> email.message.Message:
    root = email.message.Message()
    date = email.utils.format_datetime(EPOCH + timedelta(hours=message.delivered_at))
    sending_domain = message.sending_domain or message.sender_domain
    if sending_domain:
        root["Return-Path"] = f"<bounce@{sending_domain}>"
    root["Received"] = (f"from mail.{sending_domain or 'unknown'} "
                        f"([{message.sending_ip}]) by mx.corp.example; {date}")
    if message.dkim_signed:
        root["DKIM-Signature"] = (f"v=1; a=rsa-sha256; d={sending_domain}; "
                                  f"s=default; h=from:to:subject:date; bh=; b=")
    root["From"] = message.sender
    root["To"] = message.recipient
    root["Subject"] = _header(message.subject)
    root["Date"] = date
    for name, value in message.headers.items():
        if name not in root:
            root[name] = _header(value)
    root["MIME-Version"] = "1.0"
    counter[0] += 1
    root["Content-Type"] = f'multipart/mixed; boundary="=_perfbench_{counter[0]:06d}"'
    root.set_payload([_part(part, counter) for part in message.parts])
    return root


def _header(value: str):
    return value if value.isascii() else email.header.Header(value, "utf-8")


def _part(part: MessagePart, counter: list[int]) -> email.message.Message:
    content = part.content
    if part.content_type == ContentType.EML and isinstance(content, EmailMessage):
        leaf = email.message.Message()
        leaf["Content-Type"] = "message/rfc822"
        leaf.set_payload([_build(content, counter)])
    elif part.content_type in (ContentType.TEXT, ContentType.HTML, ContentType.RTF) \
            and isinstance(content, str):
        leaf = email.message.Message()
        leaf["Content-Type"] = f'{part.content_type}; charset="utf-8"'
        if part.transfer_encoding == "base64":
            leaf["Content-Transfer-Encoding"] = "base64"
            leaf.set_payload(_wrap76(content))
        else:
            # Raw UTF-8 octets smuggled through a str, the form
            # BytesGenerator writes back out byte for byte.
            leaf["Content-Transfer-Encoding"] = "8bit"
            leaf.set_payload(content.encode("utf-8").decode("ascii", "surrogateescape"))
    else:
        leaf = email.message.Message()
        leaf["Content-Type"] = ContentType.OCTET_STREAM
        leaf["Content-Transfer-Encoding"] = "base64"
        leaf.set_payload(_wrap76(base64.b64encode(binary_bytes(content)).decode("ascii")))
    disposition = "inline" if part.inline else "attachment"
    if part.filename:
        disposition += f'; filename="{part.filename}"'
    if part.filename or not part.inline:
        leaf["Content-Disposition"] = disposition
    return leaf


def _wrap76(text: str) -> str:
    return "\n".join(text[i:i + 76] for i in range(0, len(text), 76))


def binary_bytes(obj: object) -> bytes:
    """Deterministic bytes for one binary payload, magic number first."""
    if isinstance(obj, Image):
        height, width, _ = obj.pixels.shape
        return PNG_MAGIC + struct.pack(">II", width, height) + zlib.compress(
            obj.pixels.tobytes(), 6
        )
    if isinstance(obj, PdfDocument):
        lines = [PDF_MAGIC + b"1.7"]
        for page in obj.pages:
            lines.append(b"%% page")
            lines.extend(line.encode("utf-8") for line in page.text_lines)
            lines.extend(b"/URI (" + uri.encode("utf-8") + b")"
                         for uri in page.uri_annotations)
            lines.extend(binary_bytes(image) for image in page.images)
        return b"\n".join(lines)
    if isinstance(obj, ArchiveFile):
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as archive:
            for name, entry in obj.entries:
                archive.writestr(zipfile.ZipInfo(name, _ZIP_TIME), binary_bytes(entry))
        return out.getvalue()
    if isinstance(obj, FileBlob):
        return obj.leading_bytes + b"\n" + binary_bytes(obj.payload)
    if isinstance(obj, HtaFile):
        return obj.markup.encode("utf-8")
    if isinstance(obj, EmailMessage):
        return render_eml(obj)
    if isinstance(obj, bytes):
        return obj
    return str(obj).encode("utf-8")
