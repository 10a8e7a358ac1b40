"""Round trips of the serve workload's .eml rendering through ingest."""

import numpy as np

from emlrender import PNG_MAGIC, binary_bytes, render_eml
from repro.dataset import CorpusGenerator
from repro.imaging.image import Image
from repro.mail.attachments import ArchiveFile, FileBlob, HtaFile
from repro.mail.ingest import ingest_eml_bytes
from repro.mail.message import ContentType, EmailMessage, MessagePart
from repro.pdfdoc.document import PdfDocument, PdfPage


def _image() -> Image:
    pixels = np.zeros((12, 20, 3), dtype=np.uint8)
    pixels[3:9, 4:16] = 255
    return Image(pixels)


def _message() -> EmailMessage:
    nested = EmailMessage(
        sender="ceo@partner.example", recipient="ap@corp.example",
        subject="Forwarded: invoice", delivered_at=5.5, sending_domain="partner.example",
        sending_ip="203.0.113.9", dkim_signed=False,
    )
    nested.add_part(MessagePart.text("see https://inner.example/doc", base64_encode=True))
    pdf = PdfDocument().add_page(PdfPage(text_lines=["Pay here"],
                                         uri_annotations=["https://pdf.example/pay"]))
    archive = ArchiveFile().add("invoice.hta", HtaFile("invoice.hta", "https://x.example/a.js"))
    message = EmailMessage(
        sender="billing@vendor.example", recipient="employee@corp.example",
        subject="Überfällige Rechnung", delivered_at=1234.25,
        sending_domain="mailer.vendor.example", sending_ip="198.51.100.77", dkim_signed=True,
    )
    message.add_part(MessagePart.text("Dear customer,\nplease pay.\n"))
    message.add_part(MessagePart.html("<html><a href='https://pay.example/x'>pay</a></html>",
                                      base64_encode=True))
    message.add_part(MessagePart(ContentType.IMAGE, _image(), filename="qr.png"))
    message.add_part(MessagePart(ContentType.PDF, pdf, filename="invoice.pdf", inline=False))
    message.add_part(MessagePart(ContentType.ZIP, archive, filename="invoice.zip", inline=False))
    message.add_part(MessagePart(ContentType.OCTET_STREAM, FileBlob.wrapping("scan.bin", pdf),
                                 filename="scan.bin", inline=False))
    message.add_part(MessagePart(ContentType.EML, nested, filename="fwd.eml", inline=False))
    return message


def test_round_trip_carries_headers_parts_and_magic_bytes():
    message = _message()
    raw = render_eml(message)
    assert raw == render_eml(message), "rendering must be deterministic"
    back = ingest_eml_bytes(raw)

    assert (back.sender, back.recipient, back.subject) == (
        message.sender, message.recipient, message.subject)
    assert back.delivered_at == message.delivered_at
    assert back.sending_domain == message.sending_domain
    assert back.sending_ip == message.sending_ip
    assert back.dkim_signed is True

    text, html, image, pdf, archive, blob, eml = back.parts
    assert (text.content_type, text.content, text.transfer_encoding) == (
        ContentType.TEXT, "Dear customer,\nplease pay.\n", "")
    assert html.content_type == ContentType.HTML
    assert html.transfer_encoding == "base64"
    assert html.content == message.parts[1].content
    assert [part.content.sniffed_kind() for part in (image, pdf, archive, blob)] == [
        "image", "pdf", "zip", "pdf"]
    assert all(part.content_type == ContentType.OCTET_STREAM
               for part in (image, pdf, archive, blob))
    assert (pdf.filename, pdf.inline) == ("invoice.pdf", False)
    assert image.content.payload == binary_bytes(message.parts[2].content)

    assert eml.content_type == ContentType.EML
    inner = eml.content
    assert (inner.sender, inner.sending_ip, inner.dkim_signed) == (
        "ceo@partner.example", "203.0.113.9", False)
    assert inner.parts[0].transfer_encoding == "base64"
    assert inner.parts[0].decoded_text() == "see https://inner.example/doc"


def test_calibrated_corpus_round_trips():
    messages = CorpusGenerator(seed=3, scale=0.03).generate().messages[:60]
    for message in messages:
        back = ingest_eml_bytes(render_eml(message))
        assert (back.sender, back.recipient, back.subject, back.sending_ip) == (
            message.sender, message.recipient, message.subject, message.sending_ip)
        assert abs(back.delivered_at - message.delivered_at) < 1 / 3600
        assert len(back.parts) == len(message.parts)
        for original, copy in zip(message.parts, back.parts):
            if isinstance(original.content, str):
                assert (copy.content_type, copy.content, copy.transfer_encoding) == (
                    original.content_type, original.content, original.transfer_encoding)
            else:
                assert copy.content.leading_bytes.startswith((PNG_MAGIC, b"%PDF-"))
